package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

// testHealthCfg is a small, fast-moving configuration: 10 s window in
// 10 buckets, 2-sample hysteresis, 2 s dwell.
func testHealthCfg() HealthConfig {
	return HealthConfig{
		Window:     10,
		Buckets:    10,
		Hysteresis: 2,
		MinDwell:   2,
	}
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
	if got := m.State("relay-a"); got != HealthHealthy {
		t.Fatalf("state = %v, want healthy (score %.3f)", got, m.Score("relay-a"))
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
	if m.State("p") != HealthHealthy {
		t.Fatalf("baseline state = %v, want healthy", m.State("p"))
	}
	// Throughput collapses ~100x but requests still succeed: the fast
	// EWMA dives, the slow one remembers the norm, and the score floors
	// near 0.5 — degraded, not down.
	for i := 0; i < 8; i++ {
		m.fold("p", now+float64(i), ClassOK, 5.0, 1<<20, false)
	}
	now += 8
	if got := m.State("p"); got != HealthDegraded {
		t.Fatalf("after collapse state = %v (score %.3f), want degraded", got, m.Score("p"))
	}
	// Then the path starts failing outright: availability drives the
	// score under downScore.
	for i := 0; i < 10; i++ {
		m.fold("p", now+float64(i), ClassFailed, 0, 0, false)
	}
	if got := m.State("p"); got != HealthDown {
		t.Fatalf("after failures state = %v (score %.3f), want down", got, m.Score("p"))
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
	cfg := testHealthCfg()
	cfg.Hysteresis = 3
	cfg.MinDwell = 10 // covers the failure burst below
	m := NewHealthMonitor(cfg)
	now := feedOK(m, "p", 0, 5, 0.05, 1<<20)
	// One isolated failure is not enough evaluations to transition.
	m.fold("p", now, ClassFailed, 0, 0, false)
	if got := m.State("p"); got != HealthHealthy {
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
	if got := m.State("p"); got == HealthHealthy {
		t.Fatalf("state still healthy after sustained post-dwell failures (score %.3f)", m.Score("p"))
	}
}

func TestHealthStalenessDrivesScoreDown(t *testing.T) {
	cfg := testHealthCfg()
	cfg.MaxSuccessAge = 5
	clock := 0.0
	cfg.Clock = func() float64 { return clock }
	m := NewHealthMonitor(cfg)
	feedOK(m, "p", 0, 5, 0.05, 1<<20) // last success at t=4
	clock = 9                         // a full MaxSuccessAge after it
	if s := m.Score("p"); s > 0.3 {
		t.Fatalf("score after silence = %.3f, want near 0", s)
	}
	clock = 20 // evaluations outlast the dwell; state decays without events
	m.Score("p")
	clock = 25
	if got := m.State("p"); got != HealthDown {
		t.Fatalf("stale path state = %v, want down", got)
	}
}

func TestHealthCanceledIsNotASample(t *testing.T) {
	// A canceled outcome says nothing about the path, whichever way it
	// arrives: an event stream's abort, or a daemon's direct Observe of a
	// reaped probe. Neither may leave an entry scoring 0.
	for name, feed := range map[string]func(m *HealthMonitor){
		"TransferAborted": func(m *HealthMonitor) {
			m.TransferAborted(Abort{Path: PathID{}, Time: 1, Class: ClassCanceled})
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

func TestHealthObserverFeeding(t *testing.T) {
	m := NewHealthMonitor(testHealthCfg())
	via := "r1"
	p := PathID{Via: via}
	m.ProbeFinished(ProbeEnd{Path: p, Time: 1, Bytes: 50000, Duration: 0.1, Class: ClassOK})
	m.TransferFinished(TransferEnd{Path: p, Time: 2, Bytes: 1 << 20, Duration: 0.5, Class: ClassOK})
	m.RetryScheduled(Retry{Path: p, Time: 3, Attempt: 1})
	m.TransferAborted(Abort{Path: p, Time: 4, Class: ClassTimeout})
	ph, ok := m.PathHealth(p.Label())
	if !ok {
		t.Fatalf("no entry for %q", p.Label())
	}
	if ph.Ok != 2 || ph.Retries != 1 || ph.Failed != 1 {
		t.Fatalf("counts ok=%d retry=%d fail=%d, want 2/1/1", ph.Ok, ph.Retries, ph.Failed)
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
		_ = m.State(path)
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
