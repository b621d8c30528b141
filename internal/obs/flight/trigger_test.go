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
	rec := NewRecorder(Config{Ring: 8})
	e := NewEngine(TriggerConfig{Recorder: rec, Window: 60, Clock: clock.Now})
	defer e.Close()

	e.Fire("health-down", "pathA", "")
	e.Fire("health-down", "pathA", "") // inside the window: suppressed
	clock.Advance(59)
	e.Fire("slo-fast-burn", "pathA", "") // still inside
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
	rec := NewRecorder(Config{Ring: 8})
	e := NewEngine(TriggerConfig{Recorder: rec, Window: 60, Clock: clock.Now})
	defer e.Close()

	// A path going down typically burns the SLO in the same breath: the
	// two triggers must collapse into one bundle.
	e.FireHealth("pathA", obs.HealthTransition{From: obs.HealthDegraded, To: obs.HealthDown})
	e.FireBurn("pathA", 14.2)
	// A different path rate-limits independently.
	e.FireBurn("pathB", 3.0)

	s := e.Stats()
	if s.Fired != 2 || s.Suppressed != 1 {
		t.Fatalf("stats = %+v, want 2 fired / 1 suppressed", s)
	}
	waitBuilt(t, e, 2)
	bundles := e.Bundles()
	if len(bundles) != 2 {
		t.Fatalf("retained %d bundles, want 2", len(bundles))
	}
	// Newest first: pathB's burn bundle, then pathA's health bundle.
	if bundles[0].Path != "pathB" || bundles[0].Reason != "slo-fast-burn" {
		t.Fatalf("newest bundle = %+v", bundles[0])
	}
	if bundles[1].Path != "pathA" || bundles[1].Reason != "health-down" {
		t.Fatalf("oldest bundle = %+v", bundles[1])
	}
}

func TestFireHealthOnlyOnDown(t *testing.T) {
	rec := NewRecorder(Config{Ring: 8})
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
	rec := NewRecorder(Config{Ring: 8})
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
	// snapshot, then overflow the queue with distinct paths.
	release := make(chan struct{})
	var once sync.Once
	rec := NewRecorder(Config{Ring: 8})
	e := NewEngine(TriggerConfig{
		Recorder: rec,
		QueueLen: 1,
		Metrics: func() []byte {
			once.Do(func() { <-release })
			return []byte("# snapshot\n")
		},
	})

	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 10; i++ {
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
	rec := NewRecorder(Config{Ring: 16})
	spans := obs.NewSpanCollector(0)
	prof, err := NewProfiler(ProfilerConfig{Dir: t.TempDir(), Every: 100 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	if err := prof.CycleNow(); err != nil {
		t.Fatal(err)
	}

	// One traced failing transfer on the firing path, one unrelated.
	tr := new(Record)
	tr.Start(Spec{Spans: spans, Flight: rec, Service: "client", Phase: "transfer", Path: "pathA", Object: "obj.bin"})
	trace := tr.Context().Trace.String()
	tr.Outcome(obs.ClassFailed, "connection reset")
	tr.Finish()
	record(rec, "pathB", "other.bin", obs.ClassOK)

	e := NewEngine(TriggerConfig{
		Recorder: rec,
		Spans:    spans,
		Profiler: prof,
		Metrics:  func() []byte { return []byte("# metrics\n") },
	})
	defer e.Close()
	e.Fire("slo-fast-burn", "pathA", "fast availability burn 14.0")
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
	rec := NewRecorder(Config{Ring: 8})
	e := NewEngine(TriggerConfig{Recorder: rec, Dir: dir, MaxBundles: 2, Window: 1, Clock: clock.Now})
	defer e.Close()

	for i := 0; i < 3; i++ {
		e.Fire("health-down", "pathA", "")
		clock.Advance(2)
	}
	waitBuilt(t, e, 3)
	if n := len(e.Bundles()); n != 2 {
		t.Fatalf("retained %d bundles, want 2", n)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("disk has %d bundle files, want 2 after eviction", len(entries))
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
	e.FireBurn("p", 3)
	if e.Stats() != (EngineStats{}) || e.Bundles() != nil {
		t.Fatal("nil engine reported state")
	}
	if _, ok := e.Bundle("x"); ok {
		t.Fatal("nil engine served a bundle")
	}
	e.Close()
}
