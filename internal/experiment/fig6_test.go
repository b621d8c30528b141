package experiment

import "testing"

// TestFig6LevelsOff asserts the Section 4 result: a modest random set
// captures most of the attainable improvement; growing the set further
// yields little.
func TestFig6LevelsOff(t *testing.T) {
	f6 := Fig6(Fig6Params{
		Seed:             42,
		SetSizes:         []int{1, 3, 10, 22, 35},
		TransfersPerSize: 60,
	})
	if len(f6.Curves) != 3 {
		t.Fatalf("curves = %d, want 3 (Duke, Italy, Sweden)", len(f6.Curves))
	}
	for _, c := range f6.Curves {
		if len(c.Sizes) != 5 {
			t.Fatalf("%s has %d sizes", c.Client, len(c.Sizes))
		}
		knee := c.KneeSize()
		if knee > 22 {
			t.Errorf("%s knee at %d, want <= 22 (paper: ~10 of 35)", c.Client, knee)
		}
		// Utilization must not decrease dramatically with set size (more
		// candidates can only help find a better-than-direct path).
		if c.Utilization[len(c.Utilization)-1]+0.25 < c.Utilization[0] {
			t.Errorf("%s utilization collapsed with larger sets: %v", c.Client, c.Utilization)
		}
	}
	// At least one client should show clearly positive plateau
	// improvement.
	best := 0.0
	for _, c := range f6.Curves {
		for _, v := range c.AvgImprovement {
			if v > best {
				best = v
			}
		}
	}
	if best < 15 {
		t.Errorf("best improvement %.1f%%, want >= 15 (paper: ~45%%)", best)
	}
}

func TestFig6Defaults(t *testing.T) {
	p := Fig6Params{Seed: 1}.withDefaults()
	if len(p.Clients) != 3 || p.Clients[0] != "Duke (client)" {
		t.Errorf("default clients = %v", p.Clients)
	}
}

func TestKneeSize(t *testing.T) {
	c := Fig6Curve{
		Sizes:          []int{1, 5, 10, 20, 35},
		AvgImprovement: []float64{10, 30, 42, 44, 43},
	}
	if knee := c.KneeSize(); knee != 10 {
		t.Fatalf("knee = %d, want 10", knee)
	}
	flat := Fig6Curve{Sizes: []int{1, 2}, AvgImprovement: []float64{5, 5}}
	if knee := flat.KneeSize(); knee != 1 {
		t.Fatalf("flat knee = %d, want 1", knee)
	}
	if (Fig6Curve{}).KneeSize() != 0 {
		t.Fatal("empty curve knee should be 0")
	}
}

// TestTable3Correlation asserts the paper's Table III finding: utilization
// and delivered improvement correlate positively (but imperfectly).
func TestTable3Correlation(t *testing.T) {
	t3 := Table3(Table3Params{Seed: 42, Rounds: 200})
	if t3.Client != "Duke (client)" {
		t.Fatalf("client = %q", t3.Client)
	}
	if len(t3.Rows) < 8 {
		t.Fatalf("only %d non-zero-utilization rows", len(t3.Rows))
	}
	for i := 1; i < len(t3.Rows); i++ {
		if t3.Rows[i].Utilization > t3.Rows[i-1].Utilization {
			t.Fatal("rows not sorted by utilization")
		}
	}
	if t3.SpearmanR <= 0 {
		t.Errorf("Spearman rho = %.2f, want positive (paper: utilization correlates with improvement)", t3.SpearmanR)
	}
	for _, r := range t3.Rows {
		if r.Chosen > r.Offered {
			t.Fatalf("%s chosen %d > offered %d", r.Inter, r.Chosen, r.Offered)
		}
		if r.Utilization < 0 || r.Utilization > 100 {
			t.Fatalf("%s utilization %v", r.Inter, r.Utilization)
		}
	}
}
