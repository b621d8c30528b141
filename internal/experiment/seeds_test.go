package experiment

import "testing"

// TestSeedSweepStability asserts the reproduction's headline statistics
// are seed-robust: every seed must land in the qualitative bands, and the
// improvement distributions across seeds must not be wildly different.
func TestSeedSweepStability(t *testing.T) {
	res := SeedSweep(SeedSweepParams{TransfersPerClient: 15})
	if len(res.Points) != 5 {
		t.Fatalf("points = %d", len(res.Points))
	}
	for _, pt := range res.Points {
		if pt.AvgImprovement < 15 || pt.AvgImprovement > 120 {
			t.Errorf("seed %d: avg improvement %.1f out of band", pt.Seed, pt.AvgImprovement)
		}
		if pt.Utilization < 0.2 || pt.Utilization > 0.9 {
			t.Errorf("seed %d: utilization %.2f out of band", pt.Seed, pt.Utilization)
		}
		if pt.PenaltyFrac > 0.35 {
			t.Errorf("seed %d: penalties %.2f out of band", pt.Seed, pt.PenaltyFrac)
		}
	}
	// Across-seed spread should be modest relative to the mean.
	if res.AvgStd > res.AvgMean {
		t.Errorf("avg improvement spread %.1f exceeds mean %.1f", res.AvgStd, res.AvgMean)
	}
	// Distributions across seeds differ (different scenarios!) but not
	// unrecognizably: the KS distance stays well below 1.
	if res.MaxKSD > 0.5 {
		t.Errorf("max KS distance %.2f: seeds produce unrecognizably different distributions", res.MaxKSD)
	}
}
