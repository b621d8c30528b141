package obs

import (
	"encoding/json"
	"reflect"
	"strings"
	"testing"
)

// testHealthCfg is a small, fast-moving configuration: 10 s window in
// 10 buckets, so 2-sample hysteresis and a 2 s dwell.
func testHealthCfg() HealthConfig {
	return HealthConfig{Window: 10, Buckets: 10}
}

// view is one path's health as a read sees it.
func view(m *HealthMonitor, key string) PathHealth {
	ph, _ := m.PathHealth(key)
	return ph
}

// feedOK folds n successes at 1 s spacing starting at t0, each moving
// `bytes` in `lat` seconds. Returns the time after the last sample.
func feedOK(m *HealthMonitor, key string, t0 float64, n int, lat float64, bytes int64) float64 {
	for i := 0; i < n; i++ {
		m.fold(key, t0+float64(i), ClassOK, lat, bytes, false)
	}
	return t0 + float64(n)
}

func TestHealthHealthyUnderSteadySuccess(t *testing.T) {
	m := NewHealthMonitor(testHealthCfg())
	feedOK(m, "relay-a", 0, 8, 0.05, 64<<10)
	if got := view(m, "relay-a"); got.State != HealthHealthy {
		t.Fatalf("state = %v, want healthy (score %.3f)", got.State, got.Score)
	}
	ph, ok := m.PathHealth("relay-a")
	if !ok {
		t.Fatal("path missing from snapshot")
	}
	if ph.Ok != 8 || ph.Failed != 0 {
		t.Fatalf("window counts ok=%d fail=%d, want 8/0", ph.Ok, ph.Failed)
	}
	if ph.SuccessRate != 1 {
		t.Fatalf("success rate = %v, want 1", ph.SuccessRate)
	}
	if ph.ThroughputEWMA <= 0 {
		t.Fatalf("throughput EWMA = %v, want > 0", ph.ThroughputEWMA)
	}
	if ph.LatencyP50 <= 0 || ph.LatencyP99 < ph.LatencyP50 {
		t.Fatalf("quantiles p50=%v p99=%v malformed", ph.LatencyP50, ph.LatencyP99)
	}
	// The fold runs once per transfer on every daemon: on a path the
	// monitor already holds it allocates nothing.
	now := 8.0
	if got := testing.AllocsPerRun(1000, func() {
		m.fold("relay-a", now, ClassOK, 0.05, 64<<10, false)
		now += 0.01
	}); got != 0 {
		t.Fatalf("fold on a known path: %v allocs, want 0", got)
	}
}

func TestHealthDegradesOnThroughputCollapseThenDown(t *testing.T) {
	m := NewHealthMonitor(testHealthCfg())
	// Establish a healthy baseline: fast transfers.
	now := feedOK(m, "p", 0, 6, 0.05, 1<<20)
	if got := view(m, "p").State; got != HealthHealthy {
		t.Fatalf("baseline state = %v, want healthy", got)
	}
	// Throughput collapses ~100x but requests still succeed: the fast
	// EWMA dives, the slow one remembers the norm, and the score floors
	// near 0.5 — degraded, not down.
	for i := 0; i < 8; i++ {
		m.fold("p", now+float64(i), ClassOK, 5.0, 1<<20, false)
	}
	now += 8
	if got := view(m, "p"); got.State != HealthDegraded {
		t.Fatalf("after collapse state = %v (score %.3f), want degraded", got.State, got.Score)
	}
	// Then the path starts failing outright: availability drives the
	// score under downScore.
	for i := 0; i < 10; i++ {
		m.fold("p", now+float64(i), ClassFailed, 0, 0, false)
	}
	if got := view(m, "p"); got.State != HealthDown {
		t.Fatalf("after failures state = %v (score %.3f), want down", got.State, got.Score)
	}
	// The committed trajectory is exactly healthy→degraded→down.
	ph, _ := m.PathHealth("p")
	if len(ph.History) != 2 ||
		ph.History[0].From != HealthHealthy || ph.History[0].To != HealthDegraded ||
		ph.History[1].From != HealthDegraded || ph.History[1].To != HealthDown {
		t.Fatalf("transition history = %+v, want healthy→degraded→down", ph.History)
	}
}

func TestHealthHysteresisDampsFlapping(t *testing.T) {
	// 5 s buckets: the 10 s dwell covers the failure burst below.
	m := NewHealthMonitor(HealthConfig{Window: 30, Buckets: 6})
	now := feedOK(m, "p", 0, 5, 0.05, 1<<20)
	// One isolated failure is not enough folds to transition.
	m.fold("p", now, ClassFailed, 0, 0, false)
	if got := view(m, "p").State; got != HealthHealthy {
		t.Fatalf("one failure flipped state to %v", got)
	}
	// A burst of failures inside the dwell period demands the transition
	// repeatedly but the dwell suppresses it — counted as damped flaps.
	for i := 1; i <= 4; i++ {
		m.fold("p", now+float64(i)*0.1, ClassFailed, 0, 0, false)
	}
	ph, _ := m.PathHealth("p")
	if ph.State != HealthHealthy {
		t.Fatalf("state flipped to %v inside dwell", ph.State)
	}
	if ph.FlapsSuppressed == 0 {
		t.Fatal("expected suppressed flaps during dwell, got none")
	}
	// Once the dwell expires the persistent signal commits.
	for i := 0; i < 4; i++ {
		m.fold("p", now+7+float64(i), ClassFailed, 0, 0, false)
	}
	if got := view(m, "p"); got.State == HealthHealthy {
		t.Fatalf("state still healthy after sustained post-dwell failures (score %.3f)", got.Score)
	}

	// Past the dwell, hysteresis alone holds a state: the first fold that
	// scores below healthy leaves the path healthy, the next commits.
	m = NewHealthMonitor(HealthConfig{Window: 30, Buckets: 6})
	now = feedOK(m, "q", 0, 12, 0.05, 1<<20)
	demands := 0
	for i := 0; i < 10 && demands < 2; i++ {
		m.fold("q", now+float64(i)*0.1, ClassFailed, 0, 0, false)
		got := view(m, "q")
		if got.Score >= healthyScore {
			continue
		}
		demands++
		if want := [...]HealthState{HealthHealthy, HealthDegraded}[demands-1]; got.State != want {
			t.Fatalf("fold %d below healthy (score %.3f): state %v, want %v", demands, got.Score, got.State, want)
		}
	}
	if demands < 2 {
		t.Fatal("ten failures never scored below healthy twice")
	}
}

func TestHealthStalenessDrivesScoreDown(t *testing.T) {
	cfg := testHealthCfg()
	clock := 0.0
	cfg.Clock = func() float64 { return clock }
	m := NewHealthMonitor(cfg)
	feedOK(m, "p", 0, 5, 0.05, 1<<20) // last success at t=4
	clock = 14                        // a full Window after it
	if s := view(m, "p").Score; s > 0.3 {
		t.Fatalf("score after silence = %.3f, want near 0", s)
	}
	// Silence alone commits nothing: long past the dwell, the path keeps
	// the verdict its last fold committed, while its view shows the age.
	clock = 20
	if got := view(m, "p"); got.State != HealthHealthy || got.Transitions != 0 || got.LastSuccessAge != 16 {
		t.Fatalf("silent path = %+v, want still healthy, no transitions, last success 16 s ago", got)
	}
	// The next folds commit the aged verdict: hysteresis takes two.
	for _, at := range []float64{20, 21} {
		clock = at
		m.fold("p", at, ClassFailed, 0, 0, false)
	}
	if got := view(m, "p"); got.State != HealthDown || len(got.History) != 1 || got.History[0].Time != 21 {
		t.Fatalf("stale path after two folds = %+v, want down, committed at t=21", got)
	}
}

// TestHealthReadsCommitNothing: reads are views. One fold sequence —
// a healthy baseline, a failure burst, a recovery — commits the same
// transitions, at the same times, and notifies the same ones whether
// or not Snapshot and PathHealth read the monitor between its folds.
func TestHealthReadsCommitNothing(t *testing.T) {
	run := func(reads int) (history, notified []HealthTransition) {
		m := NewHealthMonitor(HealthConfig{Window: 30, Buckets: 6,
			OnTransition: func(_ string, tr HealthTransition) { notified = append(notified, tr) }})
		for i := 0; i < 60; i++ {
			class := ClassOK
			if i >= 12 && i < 24 {
				class = ClassFailed
			}
			m.fold("p", float64(i), class, 0.05, 1<<20, false)
			for j := 0; j < reads; j++ {
				m.Snapshot()
				m.PathHealth("p")
			}
		}
		return view(m, "p").History, notified
	}
	history, notified := run(0)
	if len(history) < 2 || history[len(history)-1].To != HealthHealthy {
		t.Fatalf("fold sequence committed %v, want a drop and a recovery", history)
	}
	for _, reads := range []int{1, 3} {
		h, n := run(reads)
		if !reflect.DeepEqual(h, history) || !reflect.DeepEqual(n, notified) {
			t.Fatalf("%d reads between folds: history %v, notified %v; without reads %v, %v",
				reads, h, n, history, notified)
		}
	}
}

func TestHealthCanceledIsNotASample(t *testing.T) {
	// A canceled outcome says nothing about the path, whichever way it
	// arrives: an operation's reaped probe, or a daemon's direct Observe
	// of a client hanging up. Neither may leave an entry scoring 0.
	for name, feed := range map[string]func(m *HealthMonitor){
		"Fold": func(m *HealthMonitor) {
			m.Fold(&Op{Legs: []Leg{{Route: "direct", Probe: true, End: 1, Class: ClassCanceled, Reaped: true, Aborted: true}}})
		},
		"Observe": func(m *HealthMonitor) { m.Observe("origin", ClassCanceled, 0.01, 4096) },
	} {
		m := NewHealthMonitor(testHealthCfg())
		feed(m)
		if s := m.Snapshot(); len(s.Paths) != 0 {
			t.Fatalf("canceled %s created a path entry: %+v", name, s.Paths)
		}
	}
}

// TestHealthObserverFeeding folds operation records: each leg is one
// sample at its End — a deadline death once, however the transport
// announced it — and each retry one at the time it carries.
func TestHealthObserverFeeding(t *testing.T) {
	m := NewHealthMonitor(testHealthCfg())
	m.Fold(&Op{Route: "r1", Selected: true, Legs: []Leg{
		{Route: "r1", Probe: true, Start: 0.9, End: 1, Bytes: 50000, Class: ClassOK},
		{Route: "r1", Start: 1.5, End: 2, Bytes: 1 << 20, Class: ClassOK},
	}})
	m.Fold(&Op{Legs: []Leg{
		{Route: "r1", Start: 2.5, End: 4, Bytes: 1 << 20, Class: ClassTimeout, Aborted: true, Retries: []float64{3}},
	}})
	ph, ok := m.PathHealth("r1")
	if !ok {
		t.Fatal("no entry for r1")
	}
	if ph.Ok != 2 || ph.Retries != 1 || ph.Failed != 1 {
		t.Fatalf("counts ok=%d retry=%d fail=%d, want 2/1/1", ph.Ok, ph.Retries, ph.Failed)
	}
	if ph.LastSuccessAge != 2 {
		t.Fatalf("last success age = %v, want 2 (the transfer ending at 2, seen from 4)", ph.LastSuccessAge)
	}
}

func TestHealthWindowRotatesOldSamples(t *testing.T) {
	m := NewHealthMonitor(testHealthCfg()) // 10 s window
	feedOK(m, "p", 0, 5, 0.05, 1<<20)
	// 100 s later the old buckets have rotated out.
	m.fold("p", 100, ClassOK, 0.05, 1<<20, false)
	ph, _ := m.PathHealth("p")
	if ph.Ok != 1 {
		t.Fatalf("window ok = %d after rotation, want 1", ph.Ok)
	}
}

func TestHealthSnapshotJSONAndProm(t *testing.T) {
	m := NewHealthMonitor(testHealthCfg())
	feedOK(m, "direct", 0, 4, 0.05, 64<<10)
	m.fold("r1", 1, ClassFailed, 0, 0, false)

	s := m.Snapshot()
	var decoded HealthSnapshot
	if err := json.Unmarshal(s.JSON(), &decoded); err != nil {
		t.Fatalf("snapshot JSON round-trip: %v", err)
	}
	if len(decoded.Paths) != 2 {
		t.Fatalf("decoded %d paths, want 2", len(decoded.Paths))
	}
	if !strings.Contains(string(s.JSON()), `"state": "healthy"`) {
		t.Fatalf("JSON states not symbolic:\n%s", s.JSON())
	}

	p := NewProm()
	s.WriteProm(p, "test")
	page := p.Bytes()
	if err := LintProm(page); err != nil {
		t.Fatalf("prom lint: %v\n%s", err, page)
	}
	for _, want := range []string{"test_path_health{", "test_path_throughput_ewma_mbps{"} {
		if !strings.Contains(string(page), want) {
			t.Fatalf("prom page missing %q:\n%s", want, page)
		}
	}

	// The window counts every fold: 4 ok on direct, 1 failure on r1.
	direct, _ := decoded.Path("direct")
	r1, _ := decoded.Path("r1")
	if direct.Ok != 4 || direct.Failed != 0 || r1.Ok != 0 || r1.Failed != 1 {
		t.Fatalf("window counts direct %d/%d, r1 %d/%d; want 4/0 and 0/1",
			direct.Ok, direct.Failed, r1.Ok, r1.Failed)
	}
}

func TestHealthStateStrings(t *testing.T) {
	for s, want := range map[HealthState]string{
		HealthUnknown: "unknown", HealthHealthy: "healthy",
		HealthDegraded: "degraded", HealthDown: "down",
	} {
		if s.String() != want {
			t.Fatalf("%d.String() = %q, want %q", s, s.String(), want)
		}
	}
}

func TestHealthOnTransitionCallback(t *testing.T) {
	cfg := testHealthCfg()
	var m *HealthMonitor
	type seen struct {
		path string
		tr   HealthTransition
	}
	var calls []seen
	cfg.OnTransition = func(path string, tr HealthTransition) {
		// The callback runs after the monitor lock is released, so
		// calling back into the monitor must not deadlock.
		_ = view(m, path).State
		calls = append(calls, seen{path, tr})
	}
	m = NewHealthMonitor(cfg)

	// Unknown→healthy adoption is not a transition: no callback,
	// matching the committed history.
	now := feedOK(m, "p", 0, 6, 0.05, 1<<20)
	if len(calls) != 0 {
		t.Fatalf("first-state adoption notified: %+v", calls)
	}
	// Sustained failures commit healthy→degraded→down (or straight to
	// down); every committed transition must reach the callback in order.
	for i := 0; i < 12; i++ {
		m.fold("p", now+float64(i), ClassFailed, 0, 0, false)
	}
	ph, _ := m.PathHealth("p")
	if len(ph.History) == 0 {
		t.Fatal("no transitions committed")
	}
	if len(calls) != len(ph.History) {
		t.Fatalf("callback saw %d transitions, history has %d", len(calls), len(ph.History))
	}
	for i, c := range calls {
		if c.path != "p" || c.tr != ph.History[i] {
			t.Fatalf("callback[%d] = %+v, history[%d] = %+v", i, c, i, ph.History[i])
		}
	}
	last := calls[len(calls)-1]
	if last.tr.To != HealthDown {
		t.Fatalf("final notified transition = %+v, want →down", last.tr)
	}
}
