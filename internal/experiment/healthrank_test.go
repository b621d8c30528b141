package experiment

import "testing"

// TestHealthRankedBeatsRandom asserts the telemetry payoff claim: the
// registry's health-ranked K=10 candidate set delivers mean improvement
// at least matching uniform random K=10 sets (small tolerance for
// sampling noise — "matches or beats", not "dominates").
func TestHealthRankedBeatsRandom(t *testing.T) {
	r := RunHealthRank(HealthRankParams{Seed: 42})
	if r.Client != "Duke (client)" || r.K != 10 {
		t.Errorf("compared %s at K=%d, want Duke (client) at K=10", r.Client, r.K)
	}
	if len(r.Ranked) != 10 {
		t.Fatalf("ranked set has %d entries, want 10: %v", len(r.Ranked), r.Ranked)
	}
	if len(r.RandomAvgs) != 3 {
		t.Fatalf("random baseline has %d draws, want 3", len(r.RandomAvgs))
	}

	// The published health values must actually discriminate: the ranked
	// set's mean health strictly above the full-population mean.
	rankedHealth, allHealth := 0.0, 0.0
	for _, name := range r.Ranked {
		rankedHealth += r.Health[name]
	}
	rankedHealth /= float64(len(r.Ranked))
	for _, v := range r.Health {
		allHealth += v
	}
	allHealth /= float64(len(r.Health))
	if rankedHealth <= allHealth {
		t.Errorf("ranked mean health %.3f not above population mean %.3f", rankedHealth, allHealth)
	}

	if r.RankedAvg < r.RandomAvg-1.0 {
		t.Errorf("health-ranked K=%d mean improvement %.1f%% below random baseline %.1f%% (draws %v)",
			r.K, r.RankedAvg, r.RandomAvg, r.RandomAvgs)
	}
	t.Logf("ranked %.1f%% vs random %.1f%% (draws %v)", r.RankedAvg, r.RandomAvg, r.RandomAvgs)
}

// TestHealthRankDefaults pins the fixed setup the comparison runs under:
// Duke measuring the eBay focus server at K = 10 among the 35 Section 4
// intermediates, seeded by 2 observation transfers per relay and judged
// against 3 random draws.
func TestHealthRankDefaults(t *testing.T) {
	scen := sec4Scenario(1)
	if kneeK != 10 || len(scen.Intermediates) != 35 {
		t.Errorf("K=%d inters=%d, want 10 of 35", kneeK, len(scen.Intermediates))
	}
	if scen.FindClient(duke) == nil || duke != "Duke (client)" {
		t.Errorf("client %q missing from the Section 4 scenario", duke)
	}
	if focus(scen) == nil {
		t.Error("Section 4 scenario has no focus server")
	}
	if seedTransfers != 2 || randomSets != 3 {
		t.Errorf("seedTransfers=%d randomSets=%d, want 2 and 3", seedTransfers, randomSets)
	}
}
