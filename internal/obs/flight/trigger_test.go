package flight

import (
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/obs"
)

// fakeClock is a settable engine clock.
type fakeClock struct {
	mu  sync.Mutex
	now float64
}

func (c *fakeClock) Now() float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d float64) {
	c.mu.Lock()
	c.now += d
	c.mu.Unlock()
}

// waitStats polls until the engine has built want bundles (the worker
// is asynchronous) or the deadline passes.
func waitBuilt(t *testing.T, e *Engine, want uint64) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		if e.Stats().Built >= want {
			return
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatalf("engine built %d bundles, want %d", e.Stats().Built, want)
}

func TestTriggerRateLimitWindow(t *testing.T) {
	clock := &fakeClock{}
	rec := NewRecorder(8, false)
	e := NewEngine(TriggerConfig{Recorder: rec, Window: 60, Clock: clock.Now})
	defer e.Close()

	e.Fire("health-down", "pathA", "")
	e.Fire("health-down", "pathA", "") // inside the window: suppressed
	clock.Advance(59)
	e.Fire("manual", "pathA", "") // still inside, whatever the reason
	clock.Advance(2)
	e.Fire("health-down", "pathA", "") // window elapsed: fires

	s := e.Stats()
	if s.Fired != 2 || s.Suppressed != 2 {
		t.Fatalf("stats = %+v, want 2 fired / 2 suppressed", s)
	}
	waitBuilt(t, e, 2)
}

func TestTriggerOverlappingReasonsSamePathCollapse(t *testing.T) {
	clock := &fakeClock{}
	rec := NewRecorder(8, false)
	e := NewEngine(TriggerConfig{Recorder: rec, Window: 60, Clock: clock.Now})
	defer e.Close()

	// The rate limit is keyed by path, not reason: a second trigger with
	// another reason on a path that just fired collapses into its bundle.
	e.FireHealth("pathA", obs.HealthTransition{From: obs.HealthDegraded, To: obs.HealthDown})
	e.Fire("manual", "pathA", "operator request")
	// A different path rate-limits independently.
	e.Fire("manual", "pathB", "operator request")

	s := e.Stats()
	if s.Fired != 2 || s.Suppressed != 1 {
		t.Fatalf("stats = %+v, want 2 fired / 1 suppressed", s)
	}
	waitBuilt(t, e, 2)
	bundles := e.Bundles()
	if len(bundles) != 2 {
		t.Fatalf("retained %d bundles, want 2", len(bundles))
	}
	// Newest first: pathB's manual bundle, then pathA's health bundle.
	if bundles[0].Path != "pathB" || bundles[0].Reason != "manual" {
		t.Fatalf("newest bundle = %+v", bundles[0])
	}
	if bundles[1].Path != "pathA" || bundles[1].Reason != "health-down" {
		t.Fatalf("oldest bundle = %+v", bundles[1])
	}
}

func TestFireHealthOnlyOnDown(t *testing.T) {
	rec := NewRecorder(8, false)
	e := NewEngine(TriggerConfig{Recorder: rec})
	defer e.Close()
	e.FireHealth("p", obs.HealthTransition{From: obs.HealthDown, To: obs.HealthHealthy})
	e.FireHealth("p", obs.HealthTransition{From: obs.HealthHealthy, To: obs.HealthDegraded})
	if s := e.Stats(); s.Fired != 0 {
		t.Fatalf("recovery/degradation fired a bundle: %+v", s)
	}
}

func TestBundleWriteFailureNeverBlocks(t *testing.T) {
	// Dir is a plain file, so MkdirAll (and any write under it) fails.
	dir := filepath.Join(t.TempDir(), "not-a-dir")
	if err := os.WriteFile(dir, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	rec := NewRecorder(8, false)
	e := NewEngine(TriggerConfig{Recorder: rec, Dir: dir})
	defer e.Close()

	done := make(chan struct{})
	go func() {
		defer close(done)
		e.Fire("health-down", "pathA", "")
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Fire blocked on an unwritable bundle dir")
	}
	waitBuilt(t, e, 1)
	if s := e.Stats(); s.WriteFailures != 1 {
		t.Fatalf("stats = %+v, want 1 write failure", s)
	}
	// The bundle survives in memory even though persisting failed.
	if bundles := e.Bundles(); len(bundles) != 1 {
		t.Fatalf("retained %d bundles, want 1", len(bundles))
	}
}

func TestFireNeverBlocksOnFullQueue(t *testing.T) {
	// Wedge the worker inside its first build via a blocking Metrics
	// snapshot, then overflow the queue with distinct paths: one build
	// runs, queueLen wait, and the rest are dropped.
	release := make(chan struct{})
	var once sync.Once
	rec := NewRecorder(8, false)
	e := NewEngine(TriggerConfig{
		Recorder: rec,
		Metrics: func() []byte {
			once.Do(func() { <-release })
			return []byte("# snapshot\n")
		},
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < queueLen+4; i++ {
			e.Fire("health-down", string(rune('a'+i)), "")
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Fire blocked on a full bundle queue")
	}
	if s := e.Stats(); s.Dropped == 0 {
		t.Fatalf("stats = %+v, want drops with a wedged worker", s)
	}
	close(release)
	e.Close()
	s := e.Stats()
	if s.Built != s.Fired {
		t.Fatalf("stats = %+v: every fired trigger must build after drain", s)
	}
}

func TestBundleContentAndStitchedTraces(t *testing.T) {
	rec := NewRecorder(16, true)
	prof, err := NewProfiler(ProfilerConfig{Dir: t.TempDir(), Every: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.CycleNow(); err != nil {
		t.Fatal(err)
	}

	// One traced failing transfer on the firing path, one unrelated.
	tr := new(Record)
	tr.Start(Spec{Flight: rec, Service: "client", Phase: "transfer", Path: "pathA", Object: "obj.bin"})
	trace := tr.Context().Trace.String()
	tr.Outcome(obs.ClassFailed, "connection reset")
	tr.Finish()
	record(rec, "pathB", "other.bin", obs.ClassOK)

	e := NewEngine(TriggerConfig{
		Recorder: rec,
		Profiler: prof,
		Metrics:  func() []byte { return []byte("# metrics\n") },
	})
	defer e.Close()
	e.Fire("health-down", "pathA", "degraded->down score=0.120")
	waitBuilt(t, e, 1)

	name := e.Bundles()[0].Name
	b, ok := e.Bundle(name)
	if !ok {
		t.Fatalf("bundle %q not retrievable", name)
	}
	if len(b.Events) != 1 || b.Events[0].Path != "pathA" {
		t.Fatalf("bundle events = %+v, want only pathA's", b.Events)
	}
	if b.TraceCount != 1 || len(b.Traces) != 1 || !strings.Contains(b.Traces[0], trace) {
		t.Fatalf("bundle traces = %d %v, want the stitched pathA trace", b.TraceCount, b.Traces)
	}
	if !strings.Contains(b.Goroutines, "goroutine") {
		t.Fatal("bundle missing goroutine dump")
	}
	if len(b.Profiles) == 0 {
		t.Fatal("bundle missing profiler captures")
	}
	if b.Metrics != "# metrics\n" {
		t.Fatalf("bundle metrics = %q", b.Metrics)
	}
}

func TestBundlePersistAndEviction(t *testing.T) {
	dir := t.TempDir()
	clock := &fakeClock{}
	rec := NewRecorder(8, false)
	e := NewEngine(TriggerConfig{Recorder: rec, Dir: dir, Window: 1, Clock: clock.Now})
	defer e.Close()

	// One build at a time: the queue holds fewer than maxBundles.
	for i := 0; i < maxBundles+1; i++ {
		e.Fire("health-down", "pathA", "")
		clock.Advance(2)
		waitBuilt(t, e, uint64(i+1))
	}
	if n := len(e.Bundles()); n != maxBundles {
		t.Fatalf("retained %d bundles, want %d", n, maxBundles)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != maxBundles {
		t.Fatalf("disk has %d bundle files, want %d after eviction", len(entries), maxBundles)
	}
	// The persisted file is the bundle's JSON.
	data, err := os.ReadFile(filepath.Join(dir, entries[0].Name()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"reason": "health-down"`) {
		t.Fatalf("persisted bundle JSON missing reason:\n%.200s", data)
	}
}

func TestNilEngineNoOp(t *testing.T) {
	var e *Engine
	e.Fire("health-down", "p", "")
	e.FireHealth("p", obs.HealthTransition{To: obs.HealthDown})
	if e.Stats() != (EngineStats{}) || e.Bundles() != nil {
		t.Fatal("nil engine reported state")
	}
	if _, ok := e.Bundle("x"); ok {
		t.Fatal("nil engine served a bundle")
	}
	e.Close()
}
