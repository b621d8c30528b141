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

// down is a →down transition at time at on the monitor's clock: the
// engine rate-limits on, and stamps bundles with, the time it carries.
func down(at float64) obs.HealthTransition {
	return obs.HealthTransition{From: obs.HealthDegraded, To: obs.HealthDown, Time: at, Score: 0.12}
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
	rec := NewRecorder(8, false)
	e := NewEngine(TriggerConfig{Recorder: rec, Window: 60})
	defer e.Close()

	e.FireHealth("pathA", down(0))
	e.FireHealth("pathA", down(0))  // inside the window: suppressed
	e.FireHealth("pathA", down(59)) // still inside
	e.FireHealth("pathA", down(61)) // window elapsed: fires

	s := e.Stats()
	if s.Fired != 2 || s.Suppressed != 2 {
		t.Fatalf("stats = %+v, want 2 fired / 2 suppressed", s)
	}
	waitBuilt(t, e, 2)
	// Each bundle is stamped with its transition's time.
	if b := e.Bundles(); b[0].At != 61 || b[1].At != 0 {
		t.Fatalf("bundles at %v and %v, want 61 and 0", b[0].At, b[1].At)
	}
}

func TestTriggerRateLimitIsPerPath(t *testing.T) {
	rec := NewRecorder(8, false)
	e := NewEngine(TriggerConfig{Recorder: rec, Window: 60})
	defer e.Close()

	// A second →down on a path that just fired collapses into its
	// bundle; a different path rate-limits independently.
	e.FireHealth("pathA", down(0))
	e.FireHealth("pathA", down(1))
	e.FireHealth("pathB", down(1))

	s := e.Stats()
	if s.Fired != 2 || s.Suppressed != 1 {
		t.Fatalf("stats = %+v, want 2 fired / 1 suppressed", s)
	}
	waitBuilt(t, e, 2)
	bundles := e.Bundles()
	if len(bundles) != 2 {
		t.Fatalf("retained %d bundles, want 2", len(bundles))
	}
	// Newest first: pathB's bundle, then pathA's.
	if bundles[0].Path != "pathB" || bundles[0].Name != "bundle-000002-health-down" {
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
		e.FireHealth("pathA", down(0))
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("FireHealth blocked on an unwritable bundle dir")
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
			e.FireHealth(string(rune('a'+i)), down(0))
		}
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("FireHealth blocked on a full bundle queue")
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
	e.FireHealth("pathA", down(0))
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
	if b.Detail != "degraded->down score=0.120" {
		t.Fatalf("bundle detail = %q", b.Detail)
	}
}

func TestBundlePersistAndEviction(t *testing.T) {
	dir := t.TempDir()
	rec := NewRecorder(8, false)
	e := NewEngine(TriggerConfig{Recorder: rec, Dir: dir, Window: 1})
	defer e.Close()

	// One build at a time: the queue holds fewer than maxBundles.
	for i := 0; i < maxBundles+1; i++ {
		e.FireHealth("pathA", down(2*float64(i)))
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
	e.FireHealth("p", down(0))
	if e.Stats() != (EngineStats{}) || e.Bundles() != nil {
		t.Fatal("nil engine reported state")
	}
	if _, ok := e.Bundle("x"); ok {
		t.Fatal("nil engine served a bundle")
	}
	e.Close()
}
