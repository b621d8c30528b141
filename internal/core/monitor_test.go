package core

import (
	"context"
	"math"
	"testing"
)

func TestMonitorObserveAndEstimate(t *testing.T) {
	m := NewMonitor()
	if _, ok := m.Estimate("s", Path{Via: "A"}); ok {
		t.Fatal("empty monitor reported an estimate")
	}
	m.Observe("s", Path{Via: "A"}, 2e6)
	if v, ok := m.Estimate("s", Path{Via: "A"}); !ok || v != 2e6 {
		t.Fatalf("first sample: %v %v", v, ok)
	}
	m.Observe("s", Path{Via: "A"}, 4e6)
	v, _ := m.Estimate("s", Path{Via: "A"})
	want := 0.7*2e6 + 0.3*4e6
	if math.Abs(v-want) > 1 {
		t.Fatalf("EWMA = %v, want %v", v, want)
	}
}

func TestMonitorIgnoresBadSamples(t *testing.T) {
	m := NewMonitor()
	m.Observe("s", Path{Via: "A"}, 0)
	m.Observe("s", Path{Via: "A"}, -5)
	if _, ok := m.Estimate("s", Path{Via: "A"}); ok {
		t.Fatal("non-positive samples recorded")
	}
}

// TestMonitorKeysByFullPath is the regression test for the estimate map
// being keyed only by Via: observations of the direct path to two
// different origins must not collide, and a relay's estimate toward one
// origin must not leak into selections toward another.
func TestMonitorKeysByFullPath(t *testing.T) {
	m := NewMonitor()
	m.Observe("alpha", Path{Via: Direct}, 8e6)
	m.Observe("beta", Path{Via: Direct}, 1e6)

	if v, ok := m.Estimate("alpha", Path{Via: Direct}); !ok || v != 8e6 {
		t.Fatalf("alpha direct estimate = %v %v, want 8e6 (collided with beta?)", v, ok)
	}
	if v, ok := m.Estimate("beta", Path{Via: Direct}); !ok || v != 1e6 {
		t.Fatalf("beta direct estimate = %v %v, want 1e6 (collided with alpha?)", v, ok)
	}

	// A relay known fast toward alpha says nothing about beta: toward
	// beta only the direct path is known, so it must win.
	m.Observe("alpha", Path{Via: "R"}, 9e6)
	if best, ok := m.Best("beta", []string{"R"}); !ok || best.Via != Direct {
		t.Fatalf("beta best = %v %v, want direct (alpha's relay estimate leaked)", best, ok)
	}
	if v, ok := m.Estimate("beta", Path{Via: "R"}); ok {
		t.Fatalf("beta relay estimate = %v, want none (alpha's relay estimate leaked)", v)
	}
}

func TestMonitorBest(t *testing.T) {
	m := NewMonitor()
	if best, ok := m.Best("s", []string{"A", "B"}); ok || !best.IsDirect() {
		t.Fatalf("empty monitor best = %v, %v", best, ok)
	}
	m.Observe("s", Path{Via: Direct}, 1e6)
	m.Observe("s", Path{Via: "A"}, 3e6)
	m.Observe("s", Path{Via: "B"}, 2e6)
	best, ok := m.Best("s", []string{"A", "B"})
	if !ok || best.Via != "A" {
		t.Fatalf("best = %v", best)
	}
}

func TestMonitorRefresh(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 4e6
	m := NewMonitor()
	obj := Object{Server: "s", Name: "o", Size: 4_000_000}
	m.Refresh(context.Background(), tr, obj, []string{"A"}, Config{ProbeBytes: 100_000})
	if v, ok := m.Estimate("s", Path{Via: "A"}); !ok || math.Abs(v-4e6) > 1 {
		t.Fatalf("refresh estimate = %v %v", v, ok)
	}
	if v, ok := m.Estimate("s", Path{Via: Direct}); !ok || math.Abs(v-1e6) > 1 {
		t.Fatalf("direct estimate = %v %v", v, ok)
	}
}

func TestSelectMonitoredUsesTableAndLearns(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 4e6
	m := NewMonitor()
	obj := Object{Server: "s", Name: "o", Size: 2_000_000}

	// Cold start: nothing known, falls back to direct, learns from it.
	out := SelectMonitored(context.Background(), tr, obj, []string{"A"}, m, Config{})
	if !out.Selected.IsDirect() || out.Err != nil {
		t.Fatalf("cold start outcome: %+v", out)
	}
	if _, ok := m.Estimate("s", Path{Via: Direct}); !ok {
		t.Fatal("cold-start transfer not observed")
	}

	// After a refresh, the faster relay is known and chosen, with no
	// probing phase in the transfer itself.
	m.Refresh(context.Background(), tr, obj, []string{"A"}, Config{ProbeBytes: 100_000})
	out = SelectMonitored(context.Background(), tr, obj, []string{"A"}, m, Config{})
	if out.Selected.Via != "A" {
		t.Fatalf("monitored selection = %v, want A", out.Selected)
	}
	if out.ProbeEnd != out.Start {
		t.Fatal("monitored transfer has a probing phase")
	}
}

func TestSelectMonitoredPropagatesError(t *testing.T) {
	tr := newFake(1e6)
	tr.fail["A"] = errTestMon
	m := NewMonitor()
	m.Observe("s", Path{Via: "A"}, 9e6) // stale belief in a dead path
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}
	out := SelectMonitored(context.Background(), tr, obj, []string{"A"}, m, Config{})
	if out.Err == nil {
		t.Fatal("dead path error not propagated")
	}
}

var errTestMon = errSentinelMon{}

type errSentinelMon struct{}

func (errSentinelMon) Error() string { return "monitor test error" }
