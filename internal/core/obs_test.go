package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// seqObserver records every callback as a flat kind/label sequence for
// order assertions.
type seqObserver struct {
	obs.Base
	events []string
}

func (s *seqObserver) note(kind string, p obs.PathID, extra string) {
	e := kind + ":" + p.Label()
	if extra != "" {
		e += ":" + extra
	}
	s.events = append(s.events, e)
}

func (s *seqObserver) ProbeStarted(e obs.ProbeStart) { s.note("probe-start", e.Path, "") }
func (s *seqObserver) ProbeFinished(e obs.ProbeEnd) {
	s.note("probe-end", e.Path, e.Class.String())
}
func (s *seqObserver) ProbeCanceled(e obs.ProbeCancel) { s.note("cancel", e.Path, "") }
func (s *seqObserver) PathSelected(e obs.Selection) {
	s.note("selected", e.Path, fmt.Sprintf("%s:%d", e.Rule, e.Candidates))
}
func (s *seqObserver) TransferStarted(e obs.TransferStart) {
	s.note("transfer-start", e.Path, fmt.Sprintf("warm=%v", e.Warm))
}
func (s *seqObserver) TransferFinished(e obs.TransferEnd) {
	s.note("transfer-end", e.Path, e.Class.String())
}

// TestObserverSequenceFullRace asserts the exact event order of one
// first-finished race on a context-aware transport: all probes start, the
// winner is selected, the losers are canceled, the warm remainder runs,
// every probe reports an end (losers with the canceled class), and the
// remainder finishes.
func TestObserverSequenceFullRace(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	tr.rate["slow"] = 0.5e6
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}
	so := &seqObserver{}

	out := SelectAndFetch(context.Background(), tr, obj, []string{"fast", "slow"},
		Config{ProbeBytes: 100_000, Observer: so})
	if out.Err != nil || out.Selected.Via != "fast" {
		t.Fatalf("outcome: sel=%v err=%v", out.Selected, out.Err)
	}

	want := []string{
		"probe-start:direct",
		"probe-start:fast",
		"probe-start:slow",
		"selected:fast:first-finished:3",
		"cancel:direct",
		"cancel:slow",
		"transfer-start:fast:warm=true",
		"probe-end:direct:canceled",
		"probe-end:fast:ok",
		"probe-end:slow:canceled",
		"transfer-end:fast:ok",
	}
	if len(so.events) != len(want) {
		t.Fatalf("got %d events %v, want %d", len(so.events), so.events, len(want))
	}
	for i := range want {
		if so.events[i] != want[i] {
			t.Fatalf("event %d = %q, want %q (full: %v)", i, so.events[i], want[i], so.events)
		}
	}
}

// TestObserverSequenceMaxThroughput covers the measured branch: all
// probes start and end, then selection, then the remainder. No
// cancellations.
func TestObserverSequenceMaxThroughput(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	obj := Object{Server: "s", Name: "o", Size: 500_000}
	so := &seqObserver{}

	out := SelectAndFetch(context.Background(), tr, obj, []string{"fast"},
		Config{ProbeBytes: 100_000, Rule: MaxThroughput, Observer: so})
	if out.Err != nil || out.Selected.Via != "fast" {
		t.Fatalf("outcome: sel=%v err=%v", out.Selected, out.Err)
	}
	want := []string{
		"probe-start:direct",
		"probe-start:fast",
		"probe-end:direct:ok",
		"probe-end:fast:ok",
		"selected:fast:max-throughput:2",
		"transfer-start:fast:warm=true",
		"transfer-end:fast:ok",
	}
	if fmt.Sprint(so.events) != fmt.Sprint(want) {
		t.Fatalf("events = %v,\nwant %v", so.events, want)
	}
}

// TestMetricsMatchOutcomes runs a batch of engine operations with a
// Metrics collector attached and checks the aggregate counters against
// the returned Outcomes — the engine-level half of the acceptance
// criterion.
func TestMetricsMatchOutcomes(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	tr.rate["slow"] = 0.5e6
	m := obs.NewMetrics()
	cfg := Config{ProbeBytes: 100_000, Observer: m}
	cands := []string{"fast", "slow"}

	const runs = 5
	indirect, canceled := 0, 0
	selectedBy := map[string]int{}
	for i := 0; i < runs; i++ {
		obj := Object{Server: "s", Name: fmt.Sprintf("o%d", i), Size: 1_000_000}
		out := SelectAndFetch(context.Background(), tr, obj, cands, cfg)
		if out.Err != nil {
			t.Fatalf("run %d: %v", i, out.Err)
		}
		if out.SelectedIndirect() {
			indirect++
		}
		selectedBy[obsID(obj, out.Selected).Label()]++
		for _, p := range out.Probes {
			if errors.Is(p.Err, ErrCanceled) {
				canceled++
			}
		}
	}

	s := m.Snapshot()
	if s.Selections != runs || s.SelectionsIndirect != int64(indirect) {
		t.Fatalf("selections = %d (%d indirect), want %d (%d)",
			s.Selections, s.SelectionsIndirect, runs, indirect)
	}
	if s.ProbesStarted != int64(runs*3) || s.ProbesFinished != s.ProbesStarted {
		t.Fatalf("probes = %d/%d, want %d", s.ProbesStarted, s.ProbesFinished, runs*3)
	}
	if s.ProbesCanceled != int64(canceled) {
		t.Fatalf("canceled = %d, want %d (from outcomes)", s.ProbesCanceled, canceled)
	}
	for label, n := range selectedBy {
		ps := s.Paths[label]
		if ps.Selected != int64(n) || ps.Probed != runs {
			t.Fatalf("path %s: %+v, want selected=%d probed=%d", label, ps, n, runs)
		}
		if got, want := ps.Utilization, float64(n)/runs; got != want {
			t.Fatalf("path %s utilization = %v, want %v", label, got, want)
		}
	}
}

// TestNilObserverUnchanged asserts a nil observer changes nothing about
// the outcome (and exercises the zero-cost emission guards).
func TestNilObserverUnchanged(t *testing.T) {
	mk := func() *fakeTransport {
		tr := newFake(1e6)
		tr.rate["fast"] = 8e6
		return tr
	}
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}
	a := SelectAndFetch(context.Background(), mk(), obj, []string{"fast"}, Config{ProbeBytes: 100_000})
	b := SelectAndFetch(context.Background(), mk(), obj, []string{"fast"},
		Config{ProbeBytes: 100_000, Observer: obs.NewMetrics()})
	if a.Selected != b.Selected || a.End != b.End || a.Throughput() != b.Throughput() {
		t.Fatalf("observed run diverged: %+v vs %+v", a, b)
	}
}

type classyErr struct{}

func (classyErr) Error() string          { return "status 503" }
func (classyErr) ObsClass() obs.ErrClass { return obs.ClassStatus }

func TestErrClassOf(t *testing.T) {
	cases := []struct {
		err  error
		want obs.ErrClass
	}{
		{nil, obs.ClassOK},
		{ErrCanceled, obs.ClassCanceled},
		{fmt.Errorf("wrapped: %w", ErrCanceled), obs.ClassCanceled},
		{ErrProbeTimeout, obs.ClassTimeout},
		{classyErr{}, obs.ClassStatus},
		{fmt.Errorf("dial: %w", classyErr{}), obs.ClassStatus},
		{errors.New("misc"), obs.ClassFailed},
		{ErrAllPathsFailed, obs.ClassFailed},
	}
	for _, c := range cases {
		if got := ErrClassOf(c.err); got != c.want {
			t.Fatalf("ErrClassOf(%v) = %v, want %v", c.err, got, c.want)
		}
	}
}
