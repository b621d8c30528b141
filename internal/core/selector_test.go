package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

func TestProbeOrderAndTiming(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 2e6
	tr.rate["B"] = 0.5e6
	obj := Object{Server: "s", Name: "o", Size: 4_000_000}
	probes := Probe(context.Background(), tr, obj, []string{"A", "B"}, Config{ProbeBytes: 100_000})
	if len(probes) != 3 {
		t.Fatalf("probes = %d, want 3 (direct + 2)", len(probes))
	}
	if !probes[0].Path.IsDirect() || probes[1].Path.Via != "A" || probes[2].Path.Via != "B" {
		t.Fatal("probe order must be direct, then candidates in order")
	}
	// A is fastest: 100KB at 2 Mb/s = 0.4s.
	if math.Abs(probes[1].End-0.4) > 1e-9 {
		t.Fatalf("A probe end = %v, want 0.4", probes[1].End)
	}
}

func TestProbeClampsToObjectSize(t *testing.T) {
	tr := newFake(1e6)
	obj := Object{Server: "s", Name: "o", Size: 50_000}
	probes := Probe(context.Background(), tr, obj, nil, Config{ProbeBytes: 100_000})
	if probes[0].Bytes != 50_000 {
		t.Fatalf("probe bytes = %d, want clamped to 50000", probes[0].Bytes)
	}
}

func TestChooseFirstFinished(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 3e6
	tr.rate["slow"] = 0.2e6
	obj := Object{Server: "s", Name: "o", Size: 4_000_000}
	probes := Probe(context.Background(), tr, obj, []string{"slow", "fast"}, Config{ProbeBytes: 100_000})
	sel := Choose(probes, FirstFinished)
	if sel.Via != "fast" {
		t.Fatalf("selected %q, want fast", sel.Via)
	}
}

func TestChooseMaxThroughput(t *testing.T) {
	tr := newFake(2e6)
	tr.rate["meh"] = 1e6
	obj := Object{Server: "s", Name: "o", Size: 4_000_000}
	probes := Probe(context.Background(), tr, obj, []string{"meh"}, Config{ProbeBytes: 100_000})
	if sel := Choose(probes, MaxThroughput); !sel.IsDirect() {
		t.Fatalf("selected %v, want direct (it is faster)", sel)
	}
}

func TestChooseSkipsFailedProbes(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["good"] = 0.5e6
	tr.fail["bad"] = errors.New("relay down")
	obj := Object{Server: "s", Name: "o", Size: 4_000_000}
	probes := Probe(context.Background(), tr, obj, []string{"bad", "good"}, Config{ProbeBytes: 100_000})
	// bad "finishes" instantly but with an error; it must not win.
	if sel := Choose(probes, FirstFinished); sel.Via == "bad" {
		t.Fatal("failed probe won the race")
	}
}

func TestChooseAllFailedFallsBackToDirect(t *testing.T) {
	probes := []ProbeResult{
		{FetchResult{Path: Path{Via: "x"}, Err: errors.New("boom")}},
	}
	if sel := Choose(probes, FirstFinished); !sel.IsDirect() {
		t.Fatal("all-failed race must fall back to direct")
	}
}

func TestChooseEmptyIsDirect(t *testing.T) {
	if sel := Choose(nil, FirstFinished); !sel.IsDirect() {
		t.Fatal("empty probe set must select direct")
	}
}

func TestSelectAndFetchIndirectWin(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 4e6
	obj := Object{Server: "s", Name: "o", Size: 4_100_000}
	out := SelectAndFetch(context.Background(), tr, obj, []string{"A"}, Config{})
	if !out.SelectedIndirect() || out.Selected.Via != "A" {
		t.Fatalf("selected %v, want via A", out.Selected)
	}
	if out.Err != nil {
		t.Fatalf("unexpected error: %v", out.Err)
	}
	// Probe phase: 100KB on A takes 0.2s (the first probe home commits);
	// remainder 4MB at 4 Mb/s = 8s. Total 8.2s.
	if math.Abs(out.Duration()-8.2) > 1e-9 {
		t.Fatalf("duration = %v, want 8.2", out.Duration())
	}
	wantTp := float64(obj.Size) * 8 / 8.2
	if math.Abs(out.Throughput()-wantTp) > 1e-6 {
		t.Fatalf("throughput = %v, want %v", out.Throughput(), wantTp)
	}
	if out.ProbeEnd != 0.2 {
		t.Fatalf("probe end = %v, want 0.2", out.ProbeEnd)
	}
}

func TestSelectAndFetchDirectWin(t *testing.T) {
	tr := newFake(5e6)
	tr.rate["A"] = 1e6
	obj := Object{Server: "s", Name: "o", Size: 2_000_000}
	out := SelectAndFetch(context.Background(), tr, obj, []string{"A"}, Config{})
	if out.SelectedIndirect() {
		t.Fatalf("selected %v, want direct", out.Selected)
	}
}

func TestSelectAndFetchTinyObject(t *testing.T) {
	// Object smaller than the probe: the probe IS the transfer; there is
	// no remainder fetch.
	tr := newFake(1e6)
	tr.rate["A"] = 2e6
	obj := Object{Server: "s", Name: "o", Size: 60_000}
	out := SelectAndFetch(context.Background(), tr, obj, []string{"A"}, Config{})
	if out.Remainder.Bytes != 0 {
		t.Fatalf("remainder bytes = %d, want 0", out.Remainder.Bytes)
	}
	if out.Err != nil {
		t.Fatal(out.Err)
	}
}

func TestSelectAndFetchPropagatesError(t *testing.T) {
	tr := newFake(1e6)
	tr.fail["A"] = errors.New("relay down")
	obj := Object{Server: "s", Name: "o", Size: 2_000_000}
	out := SelectAndFetch(context.Background(), tr, obj, []string{"A"}, Config{})
	if out.Err == nil {
		t.Fatal("probe error not propagated")
	}
	if out.SelectedIndirect() {
		t.Fatal("failed candidate should not be selected")
	}
}

func TestConfigDefaults(t *testing.T) {
	big := Object{Size: 10 * DefaultProbeBytes}
	if (Config{}).probeSize(big) != DefaultProbeBytes {
		t.Fatal("default probe bytes wrong")
	}
	if (Config{ProbeBytes: 5}).probeSize(big) != 5 {
		t.Fatal("explicit probe bytes ignored")
	}
	if (Config{}).probeSize(Object{Size: 7}) != 7 {
		t.Fatal("probe not clamped to the object")
	}
}

func TestImprovementMetric(t *testing.T) {
	if got := Improvement(2e6, 1e6); got != 100 {
		t.Errorf("doubling = %v, want 100", got)
	}
	if got := Improvement(0.5e6, 1e6); got != -50 {
		t.Errorf("halving = %v, want -50", got)
	}
	if got := Improvement(1e6, 0); got != 0 {
		t.Errorf("zero direct = %v, want 0", got)
	}
}

func TestPenaltyMetric(t *testing.T) {
	if got := Penalty(1e6, 4e6); got != 300 {
		t.Errorf("4x slowdown penalty = %v, want 300", got)
	}
	if got := Penalty(2e6, 1e6); got != 0 {
		t.Errorf("faster selection penalty = %v, want 0", got)
	}
	if got := Penalty(0, 1e6); got != 0 {
		t.Errorf("zero selected penalty = %v, want 0", got)
	}
}

func TestPathString(t *testing.T) {
	if (Path{}).String() != "direct" {
		t.Error("direct path string")
	}
	if (Path{Via: "MIT"}).String() != "via MIT" {
		t.Error("indirect path string")
	}
}

func TestRuleString(t *testing.T) {
	if FirstFinished.String() != "first-finished" || MaxThroughput.String() != "max-throughput" {
		t.Error("rule strings wrong")
	}
	if Rule(99).String() != "unknown" {
		t.Error("unknown rule string")
	}
}

func TestFetchResultThroughput(t *testing.T) {
	r := FetchResult{Bytes: 1_000_000, Start: 0, End: 8}
	if got := r.Throughput(); got != 1e6 {
		t.Fatalf("throughput = %v, want 1e6", got)
	}
	bad := FetchResult{Bytes: 1, Start: 0, End: 0}
	if bad.Throughput() != 0 {
		t.Fatal("instantaneous transfer should have 0 throughput")
	}
	failed := FetchResult{Bytes: 1, Start: 0, End: 5, Err: errors.New("x")}
	if failed.Throughput() != 0 {
		t.Fatal("failed transfer should have 0 throughput")
	}
}

func TestFetchResultDeliveredBytes(t *testing.T) {
	ok := FetchResult{Bytes: 1000}
	if got := ok.DeliveredBytes(); got != 1000 {
		t.Fatalf("success delivered = %d, want 1000", got)
	}
	partial := FetchResult{Bytes: 1000, Delivered: 300, Err: errors.New("reset")}
	if got := partial.DeliveredBytes(); got != 300 {
		t.Fatalf("failed delivered = %d, want 300", got)
	}
}

// TestOutcomeThroughputFailedRemainder is the regression test for the
// accounting bug where a failed operation was credited with the full
// object size: a 10 MB fetch whose remainder dies after 300 KB must
// report throughput from the ~400 KB that arrived, not all 10 MB.
func TestOutcomeThroughputFailedRemainder(t *testing.T) {
	obj := Object{Server: "origin", Name: "big.bin", Size: 10 << 20}
	sel := Path{Via: "relay1"}
	o := Outcome{
		Object:   obj,
		Selected: sel,
		Probes: []ProbeResult{
			{FetchResult{Path: Path{Via: Direct}, Bytes: 100_000, Start: 0, End: 0.3, Err: errors.New("lost race")}},
			{FetchResult{Path: sel, Bytes: 100_000, Start: 0, End: 0.2}},
		},
		Start: 0, End: 4,
		Remainder: FetchResult{Path: sel, Offset: 100_000, Bytes: obj.Size - 100_000,
			Delivered: 300_000, Start: 0.2, End: 4, Err: errors.New("connection reset")},
		Err: errors.New("connection reset"),
	}
	if got, want := o.DeliveredBytes(), int64(400_000); got != want {
		t.Fatalf("delivered = %d, want %d (probe 100k + partial 300k)", got, want)
	}
	if got, want := o.Throughput(), float64(400_000)*8/4; got != want {
		t.Fatalf("failed throughput = %v, want %v (was crediting full size: %v)",
			got, want, float64(obj.Size)*8/4)
	}

	// Success path unchanged: full object size over the duration.
	o.Err, o.Remainder.Err = nil, nil
	if got, want := o.Throughput(), float64(obj.Size)*8/4; got != want {
		t.Fatalf("success throughput = %v, want %v", got, want)
	}
}

func TestAwaitFirstSuccessEarlyCommit(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	tr.rate["slow"] = 0.1e6
	obj := Object{Server: "s", Name: "o", Size: 4_000_000}
	handles := launch(context.Background(), tr, nil, obj, probePaths([]string{"slow", "fast"}), 0, 100_000, nil)
	win, pending := awaitFirstSuccess(tr, handles)
	if win != 2 {
		t.Fatalf("winner index %d, want 2 (fast)", win)
	}
	if len(pending) != 2 {
		t.Fatalf("pending = %v, want the two losers", pending)
	}
	// Early commit: the clock stands at the winner's finish (0.1s), not
	// at the slowest probe's (8s).
	if tr.now > 0.2 {
		t.Fatalf("clock advanced to %v; early commit failed", tr.now)
	}
}

func TestAwaitFirstSuccessSkipsFailures(t *testing.T) {
	tr := newFake(1e6)
	tr.fail["dead"] = errors.New("down")
	tr.rate["ok"] = 0.5e6
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}
	paths := probePaths([]string{"dead", "ok"})
	handles := launch(context.Background(), tr, nil, obj, paths, 0, 100_000, nil)
	win, _ := awaitFirstSuccess(tr, handles)
	if win < 0 || paths[win].Via == "dead" {
		t.Fatalf("winner = %d (%v); failed probe must not win", win, paths[win])
	}
}

func TestAwaitFirstSuccessAllFailed(t *testing.T) {
	tr := newFake(0) // direct has no rate -> fails
	tr.fail["a"] = errors.New("down")
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}
	handles := launch(context.Background(), tr, nil, obj, probePaths([]string{"a"}), 0, 100_000, nil)
	win, pending := awaitFirstSuccess(tr, handles)
	if win != -1 || len(pending) != 0 {
		t.Fatalf("all-failed race returned %d, %v", win, pending)
	}
}

func TestSelectAndFetchEarlyCommitDuration(t *testing.T) {
	// With early commit, a pathologically slow loser must not delay the
	// selecting process: duration = winner probe + remainder.
	tr := newFake(0.05e6) // direct is glacial
	tr.rate["good"] = 4e6
	obj := Object{Server: "s", Name: "o", Size: 2_100_000}
	out := SelectAndFetch(context.Background(), tr, obj, []string{"good"}, Config{ProbeBytes: 100_000})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Selected.Via != "good" {
		t.Fatalf("selected %v", out.Selected)
	}
	// Winner probe: 0.2s; remainder 2MB at 4Mb/s: 4s. The direct probe
	// alone would take 16s.
	if out.Duration() > 5 {
		t.Fatalf("duration %.1fs; early commit failed (loser charged)", out.Duration())
	}
}

func TestSelectAndFetchAllProbesFailed(t *testing.T) {
	tr := newFake(0)
	tr.fail["a"] = errors.New("down")
	obj := Object{Server: "s", Name: "o", Size: 2_000_000}
	out := SelectAndFetch(context.Background(), tr, obj, []string{"a"}, Config{ProbeBytes: 100_000})
	if out.Err == nil {
		t.Fatal("all-failed select did not error")
	}
	if !out.Selected.IsDirect() {
		t.Fatalf("selected %v, want direct fallback", out.Selected)
	}
	if out.Remainder.Bytes != 0 {
		t.Fatal("remainder should not start when every probe failed")
	}
}

func TestProbeSequentialOrderAndStagger(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 1e6
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}
	probes := ProbeSequential(context.Background(), tr, obj, []string{"A"}, Config{ProbeBytes: 100_000})
	if len(probes) != 2 {
		t.Fatalf("probes = %d", len(probes))
	}
	if !probes[0].Path.IsDirect() || probes[1].Path.Via != "A" {
		t.Fatal("sequential probe order wrong")
	}
	// Sequential probes must not overlap: the second starts when the
	// first ends.
	if probes[1].Start < probes[0].End {
		t.Fatalf("probes overlap: %v < %v", probes[1].Start, probes[0].End)
	}
}
