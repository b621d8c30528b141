package core

import (
	"context"
	"errors"
	"fmt"
	"testing"

	"repro/internal/obs"
)

// legSeq renders an operation's record as a flat kind:label[:class]
// sequence for order assertions.
func legSeq(op obs.Op) []string {
	var seq []string
	if op.Selected {
		seq = append(seq, "selected:"+op.Route)
	}
	for _, l := range op.Legs {
		kind := "transfer"
		if l.Probe {
			kind = "probe"
		}
		e := kind + ":" + l.Route + ":" + l.Class.String()
		if l.Reaped {
			e += ":reaped"
		}
		seq = append(seq, e)
	}
	return seq
}

// TestObserverSequenceFullRace asserts the record of one first-finished
// race on a context-aware transport: the winner is selected, every probe
// is a leg in index order — the losers reaped, ending with the canceled
// class — and the warm remainder follows them.
func TestObserverSequenceFullRace(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	tr.rate["slow"] = 0.5e6
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}

	c := Race(context.Background(), tr, obj, []string{"fast", "slow"}, Config{ProbeBytes: 100_000})
	out := c.Fetch()
	if out.Err != nil || out.Selected.Via != "fast" {
		t.Fatalf("outcome: sel=%v err=%v", out.Selected, out.Err)
	}

	op := c.record(nil)
	want := []string{
		"selected:fast",
		"probe:direct:canceled:reaped",
		"probe:fast:ok",
		"probe:slow:canceled:reaped",
		"transfer:fast:ok",
	}
	if fmt.Sprint(legSeq(op)) != fmt.Sprint(want) {
		t.Fatalf("record = %v,\nwant %v", legSeq(op), want)
	}
	// The reaped losers ended with their context's error; the remainder
	// asked for what the probe left and ran from the commit to the end.
	if !op.Legs[0].Aborted || !op.Legs[2].Aborted || op.Legs[1].Aborted {
		t.Fatalf("aborted flags = %v %v %v, want losers only", op.Legs[0].Aborted, op.Legs[1].Aborted, op.Legs[2].Aborted)
	}
	if rem := op.Legs[3]; rem.Bytes != 900_000 || rem.Start != out.ProbeEnd || rem.End != out.End {
		t.Fatalf("remainder leg = %+v, outcome %+v", rem, out)
	}
}

// TestObserverSequenceMaxThroughput covers the measured branch: every
// probe runs to its end, none is reaped, then the remainder.
func TestObserverSequenceMaxThroughput(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	obj := Object{Server: "s", Name: "o", Size: 500_000}

	c := Race(context.Background(), tr, obj, []string{"fast"},
		Config{ProbeBytes: 100_000, Rule: MaxThroughput})
	out := c.Fetch()
	if out.Err != nil || out.Selected.Via != "fast" {
		t.Fatalf("outcome: sel=%v err=%v", out.Selected, out.Err)
	}
	want := []string{
		"selected:fast",
		"probe:direct:ok",
		"probe:fast:ok",
		"transfer:fast:ok",
	}
	if got := legSeq(c.record(nil)); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("record = %v,\nwant %v", got, want)
	}
}

// TestNoRemainderUnderDeadContext: when the operation's ctx dies during
// the probing phase, the remainder is not requested — it carries the
// typed error, starts and ends at that instant, and is no leg of the
// record.
func TestNoRemainderUnderDeadContext(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["slow"] = 0.1e6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The context dies as the measured probes finish.
	tr.onWait = cancel
	obj := Object{Server: "s", Name: "o", Size: 500_000}

	c := Race(ctx, tr, obj, []string{"slow"}, Config{ProbeBytes: 100_000, Rule: MaxThroughput})
	starts := tr.starts
	out := c.Fetch()
	if tr.starts != starts {
		t.Fatalf("%d transfers started after the context died", tr.starts-starts)
	}
	rem := out.Remainder
	if !errors.Is(rem.Err, ErrCanceled) || rem.Start != rem.End || rem.Bytes != 400_000 {
		t.Fatalf("remainder = %+v, want an un-issued 400000-byte range carrying ErrCanceled", rem)
	}
	if !errors.Is(out.Err, ErrCanceled) {
		t.Fatalf("outcome err = %v, want the context's", out.Err)
	}
	for _, l := range c.record(nil).Legs {
		if !l.Probe {
			t.Fatalf("record has a %+v leg for a remainder never issued", l)
		}
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
	cfg := Config{ProbeBytes: 100_000, Metrics: m}
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
		selectedBy[out.Selected.label()]++
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
	var routeBytes int64
	for _, ps := range s.Paths {
		routeBytes += ps.Bytes
	}
	if routeBytes != s.BytesDelivered {
		t.Fatalf("routes' bytes sum to %d, bytes delivered = %d", routeBytes, s.BytesDelivered)
	}
}

// TestNilObserverUnchanged asserts that recording into Metrics changes
// nothing about the outcome (and exercises the nil-Metrics guard).
func TestNilObserverUnchanged(t *testing.T) {
	mk := func() *fakeTransport {
		tr := newFake(1e6)
		tr.rate["fast"] = 8e6
		return tr
	}
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}
	a := SelectAndFetch(context.Background(), mk(), obj, []string{"fast"}, Config{ProbeBytes: 100_000})
	b := SelectAndFetch(context.Background(), mk(), obj, []string{"fast"},
		Config{ProbeBytes: 100_000, Metrics: obs.NewMetrics()})
	if a.Selected != b.Selected || a.End != b.End || a.Throughput() != b.Throughput() {
		t.Fatalf("observed run diverged: %+v vs %+v", a, b)
	}
}

// TestRecordingAllocatesNothing: folding an operation into Metrics —
// with a health monitor linked — costs no allocation over not recording
// it: the record is built on the stack and handed to concrete folds
// that keep nothing it points to.
func TestRecordingAllocatesNothing(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	tr.rate["slow"] = 0.5e6
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}
	m := obs.NewMetrics()
	m.Health = obs.NewHealthMonitor(obs.HealthConfig{})
	allocs := func(cfg Config) float64 {
		cfg.ProbeBytes = 100_000
		op := func() {
			tr.handles = tr.handles[:0] // the fake remembers its handles; do not let that grow
			SelectAndFetch(context.Background(), tr, obj, []string{"fast", "slow"}, cfg)
		}
		op() // the first fold creates the routes' entries
		return testing.AllocsPerRun(100, op)
	}
	bare, recorded := allocs(Config{}), allocs(Config{Metrics: m})
	if recorded != bare {
		t.Fatalf("SelectAndFetch: %v allocs recorded into Metrics, %v unrecorded", recorded, bare)
	}
	if s := m.Snapshot(); s.Selections == 0 || m.Health.Snapshot().Paths == nil {
		t.Fatal("the measured operations were not recorded")
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
