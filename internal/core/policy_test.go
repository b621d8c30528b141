package core

import (
	"context"
	"testing"
	"testing/quick"

	"repro/internal/obs"
	"repro/internal/randx"
)

var fullSet = []string{"A", "B", "C", "D", "E", "F", "G", "H"}

func TestStaticPolicy(t *testing.T) {
	p := StaticPolicy{Intermediate: "C"}
	got := p.Candidates(fullSet, randx.New(1))
	if len(got) != 1 || got[0] != "C" {
		t.Fatalf("candidates = %v, want [C]", got)
	}
}

func TestUniformRandomDistinct(t *testing.T) {
	p := UniformRandomPolicy{K: 4}
	r := randx.New(2)
	f := func(uint8) bool {
		got := p.Candidates(fullSet, r)
		if len(got) != 4 {
			return false
		}
		seen := map[string]bool{}
		for _, c := range got {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestUniformRandomFullAndEmpty(t *testing.T) {
	r := randx.New(3)
	if got := (UniformRandomPolicy{K: 100}).Candidates(fullSet, r); len(got) != len(fullSet) {
		t.Fatalf("K>len: got %d candidates", len(got))
	}
	if got := (UniformRandomPolicy{K: 0}).Candidates(fullSet, r); got != nil {
		t.Fatalf("K=0: got %v", got)
	}
}

func TestUniformRandomCoversAll(t *testing.T) {
	p := UniformRandomPolicy{K: 2}
	r := randx.New(4)
	counts := map[string]int{}
	for i := 0; i < 4000; i++ {
		for _, c := range p.Candidates(fullSet, r) {
			counts[c]++
		}
	}
	// Each of 8 nodes should appear ~1000 times (2/8 of 4000).
	for _, name := range fullSet {
		if counts[name] < 700 || counts[name] > 1300 {
			t.Fatalf("node %s appeared %d times, want ~1000", name, counts[name])
		}
	}
}

// TestWeightedRandomPrefersUtilized closes the paper's Section 6 loop on
// the engine: each round races direct against the one candidate the
// policy draws, the race reports into the collector the policy reads, and
// the relay that beats direct comes to dominate the draws.
func TestWeightedRandomPrefersUtilized(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	tr.rate["slow"] = 0.5e6
	m := obs.NewMetrics()
	p := WeightedRandomPolicy{K: 1, Metrics: m}
	cfg := Config{ProbeBytes: 100_000, Metrics: m}
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}
	r := randx.New(5)
	full := []string{"fast", "slow"}
	const rounds, late = 200, 100
	fast := 0
	for i := 0; i < rounds; i++ {
		cands := p.Candidates(full, r)
		if len(cands) != 1 {
			t.Fatalf("K=1 returned %d candidates", len(cands))
		}
		if out := SelectAndFetch(context.Background(), tr, obj, cands, cfg); out.Err != nil {
			t.Fatalf("round %d: %v", i, out.Err)
		}
		if i >= rounds-late && cands[0] == "fast" {
			fast++
		}
	}
	// "fast" wins every race it joins and "slow" none, so the weights
	// settle at 1.05 : 0.05 and "fast" is drawn ~95% of the time; a
	// uniform draw gives ~50%.
	if frac := float64(fast) / late; frac < 0.85 {
		t.Fatalf("fast drawn %.2f of the late rounds, want >= 0.85 (tally %+v)", frac, m.Snapshot().Paths)
	}
}

func TestWeightedRandomDistinctAndComplete(t *testing.T) {
	p := WeightedRandomPolicy{K: 3, Metrics: obs.NewMetrics()}
	r := randx.New(6)
	f := func(uint8) bool {
		got := p.Candidates(fullSet, r)
		if len(got) != 3 {
			return false
		}
		seen := map[string]bool{}
		for _, c := range got {
			if seen[c] {
				return false
			}
			seen[c] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
	if got := (WeightedRandomPolicy{K: 99}).Candidates(fullSet, r); len(got) != len(fullSet) {
		t.Fatal("K >= len should return the full set")
	}
	if got := (WeightedRandomPolicy{K: 0}).Candidates(fullSet, r); got != nil {
		t.Fatal("K = 0 should return nil")
	}
}

func TestWeightedRandomNilMetricsUniform(t *testing.T) {
	p := WeightedRandomPolicy{K: 1}
	r := randx.New(7)
	counts := map[string]int{}
	for i := 0; i < 8000; i++ {
		counts[p.Candidates(fullSet, r)[0]]++
	}
	for _, name := range fullSet {
		if counts[name] < 700 || counts[name] > 1300 {
			t.Fatalf("nil-metrics draw skewed: %s = %d", name, counts[name])
		}
	}
}
