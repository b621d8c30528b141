// The trigger engine: the piece that turns "path X just went down" into
// a debug bundle captured at the moment it mattered. Anomaly first,
// evidence second is too late — the stored rows, their spans, and
// profiles that explain a transition are all in bounded rings that will
// have rotated by the time a human asks.
//
// The one anomaly signal is the health monitor's →down edge, and the
// engine keeps no clock of its own: it rate-limits on, and stamps
// bundles with, the transition's time on the monitor's clock. Triggers
// are rate-limited per path (a path that goes down twice inside the
// window yields one bundle), and the bundle build runs on a dedicated
// goroutine behind a bounded queue: a fire from the transfer path is a
// map lookup and a non-blocking channel send, and a failing bundle
// directory is a counter, never a stall.

package flight

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// TriggerConfig parameterizes an Engine. Every source is optional and
// simply leaves its bundle section empty: origind, whose origins record
// no wide events, builds its engine without a Recorder.
type TriggerConfig struct {
	// Recorder, when set, supplies the wide events (filtered to the
	// firing path) and, from the rows of their traces, the stitched
	// timelines.
	Recorder *Recorder
	// Profiler, when set, lists its freshest captures in the bundle.
	Profiler *Profiler
	// Metrics, when set, snapshots the daemon's /metrics page into the
	// bundle.
	Metrics func() []byte
	// Dir, when set, persists each bundle as JSON on disk (created if
	// missing). Empty keeps bundles in memory only.
	Dir string
	// Window is the per-path rate-limit in seconds on the health
	// monitor's clock: after a bundle fires for a path, further
	// triggers on it are suppressed for this long (default 60).
	Window float64
}

// A bundle captures at most bundleEvents wide events and bundleTraces
// stitched traces of the firing path. An engine retains at most
// maxBundles bundles, in memory and on disk, evicting the oldest first,
// and queues at most queueLen pending builds: a full queue drops the
// trigger (counted) rather than blocking the firer.
const (
	bundleEvents = 64
	bundleTraces = 4
	maxBundles   = 8
	queueLen     = 4
)

func (c TriggerConfig) withDefaults() TriggerConfig {
	if c.Window <= 0 {
		c.Window = 60
	}
	return c
}

// Bundle is one captured debug snapshot: everything the flight
// recorder knew about the firing path at trigger time.
type Bundle struct {
	// Name is the bundle's identity ("bundle-000001-health-down"), also
	// its file name (with .json) when persisted.
	Name string `json:"name"`
	// Reason is the trigger's reason, always "health-down".
	Reason string `json:"reason"`
	// Path is the path key that fired; Detail the trigger's free-form
	// context (the transition and its score).
	Path   string `json:"path"`
	Detail string `json:"detail,omitempty"`
	// At is the transition's time on the health monitor's clock; Wall
	// the build time, Unix nanoseconds.
	At   float64 `json:"at"`
	Wall int64   `json:"wall_ns"`

	// Events are the firing path's recent wide events, newest first.
	Events []Event `json:"events"`
	// Traces are stitched timelines (obs.FormatTrace) for traces
	// referenced by those events; TraceCount how many distinct traces
	// were available.
	Traces     []string `json:"traces,omitempty"`
	TraceCount int      `json:"trace_count"`
	// Goroutines is the full goroutine dump at build time.
	Goroutines string `json:"goroutines"`
	// Profiles lists the profiler's freshest on-disk captures.
	Profiles []string `json:"profiles,omitempty"`
	// Metrics is the /metrics page at build time.
	Metrics string `json:"metrics,omitempty"`
}

// BundleInfo is the /debug/bundle listing row.
type BundleInfo struct {
	Name       string  `json:"name"`
	Reason     string  `json:"reason"`
	Path       string  `json:"path"`
	At         float64 `json:"at"`
	Events     int     `json:"events"`
	TraceCount int     `json:"trace_count"`
}

// EngineStats counts the engine's decisions.
type EngineStats struct {
	// Fired is triggers accepted (bundle queued); Suppressed those
	// inside a path's rate-limit window; Dropped those lost to a full
	// build queue; WriteFailures bundles that could not be persisted
	// (still retained in memory).
	Fired         uint64 `json:"fired"`
	Suppressed    uint64 `json:"suppressed"`
	Dropped       uint64 `json:"dropped"`
	WriteFailures uint64 `json:"write_failures"`
	// Built is bundles completed.
	Built uint64 `json:"built"`
}

// healthDown is the one trigger reason: a path's →down transition.
const healthDown = "health-down"

type trigger struct {
	path string
	tr   obs.HealthTransition
}

// Engine watches for anomaly triggers and snapshots debug bundles.
// Safe for concurrent use; a nil *Engine no-ops every method, so hook
// sites need no enabled-checks.
type Engine struct {
	cfg TriggerConfig

	mu      sync.Mutex
	last    map[string]float64 // path -> last fired, monitor clock
	bundles []*Bundle          // oldest first
	seq     uint64

	queue chan trigger
	done  chan struct{}
	close sync.Once

	fired, suppressed, dropped, writeFailures, built atomic.Uint64
}

// NewEngine builds an engine and starts its bundle worker.
func NewEngine(cfg TriggerConfig) *Engine {
	e := &Engine{
		cfg:  cfg.withDefaults(),
		last: make(map[string]float64),
	}
	e.queue = make(chan trigger, queueLen)
	e.done = make(chan struct{})
	go e.worker()
	return e
}

// Close stops the worker after draining queued triggers. Nil-safe.
func (e *Engine) Close() {
	if e == nil {
		return
	}
	e.close.Do(func() { close(e.queue) })
	<-e.done
}

// FireHealth adapts obs.HealthConfig.OnTransition: only →down
// transitions request a bundle (a degraded path still delivers; recovery
// is good news). The call never blocks: within Window of the path's last
// bundle, measured on tr.Time, it is suppressed, and with the build
// queue full it is dropped — both counted. Nil-safe.
func (e *Engine) FireHealth(path string, tr obs.HealthTransition) {
	if e == nil || tr.To != obs.HealthDown {
		return
	}
	e.mu.Lock()
	if last, ok := e.last[path]; ok && tr.Time-last < e.cfg.Window {
		e.mu.Unlock()
		e.suppressed.Add(1)
		return
	}
	e.last[path] = tr.Time
	e.mu.Unlock()
	select {
	case e.queue <- trigger{path: path, tr: tr}:
		e.fired.Add(1)
	default:
		e.dropped.Add(1)
	}
}

// Stats returns the engine's decision counters. Nil-safe.
func (e *Engine) Stats() EngineStats {
	if e == nil {
		return EngineStats{}
	}
	return EngineStats{
		Fired:         e.fired.Load(),
		Suppressed:    e.suppressed.Load(),
		Dropped:       e.dropped.Load(),
		WriteFailures: e.writeFailures.Load(),
		Built:         e.built.Load(),
	}
}

// Bundles lists retained bundles, newest first. Nil-safe.
func (e *Engine) Bundles() []BundleInfo {
	if e == nil {
		return nil
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]BundleInfo, 0, len(e.bundles))
	for i := len(e.bundles) - 1; i >= 0; i-- {
		b := e.bundles[i]
		out = append(out, BundleInfo{
			Name: b.Name, Reason: b.Reason, Path: b.Path, At: b.At,
			Events: len(b.Events), TraceCount: b.TraceCount,
		})
	}
	return out
}

// Bundle returns one retained bundle by name. Nil-safe.
func (e *Engine) Bundle(name string) (*Bundle, bool) {
	if e == nil {
		return nil, false
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	for _, b := range e.bundles {
		if b.Name == name {
			return b, true
		}
	}
	return nil, false
}

func (e *Engine) worker() {
	defer close(e.done)
	for trig := range e.queue {
		e.build(trig)
	}
}

// build assembles and retains one bundle. Runs only on the worker
// goroutine, so the (comparatively) expensive snapshotting never sits
// on a transfer path.
func (e *Engine) build(trig trigger) {
	e.mu.Lock()
	e.seq++
	seq := e.seq
	e.mu.Unlock()

	b := &Bundle{
		Name:   fmt.Sprintf("bundle-%06d-%s", seq, healthDown),
		Reason: healthDown,
		Path:   trig.path,
		Detail: fmt.Sprintf("%s->%s score=%.3f", trig.tr.From, trig.tr.To, trig.tr.Score),
		At:     trig.tr.Time,
		Wall:   time.Now().UnixNano(),
		Events: e.cfg.Recorder.Events(Filter{Path: trig.path, N: bundleEvents}),
	}
	b.Goroutines = string(GoroutineDump())
	b.Profiles = e.cfg.Profiler.Files()
	if e.cfg.Metrics != nil {
		b.Metrics = string(e.cfg.Metrics())
	}
	e.stitchInto(b)

	if e.cfg.Dir != "" {
		if err := e.persist(b); err != nil {
			e.writeFailures.Add(1)
		}
	}

	e.mu.Lock()
	e.bundles = append(e.bundles, b)
	var evicted []*Bundle
	if n := len(e.bundles) - maxBundles; n > 0 {
		evicted = append(evicted, e.bundles[:n]...)
		e.bundles = append([]*Bundle(nil), e.bundles[n:]...)
	}
	e.mu.Unlock()
	if e.cfg.Dir != "" {
		for _, old := range evicted {
			os.Remove(filepath.Join(e.cfg.Dir, old.Name+".json"))
		}
	}
	e.built.Add(1)
}

// stitchInto attaches the firing path's stitched traces: the distinct
// traces referenced by the bundle's wide events, rendered from the
// stored traced rows of those traces. A trace none of whose rows carry
// spans (tracing off) stitches to nothing — evidence, not a guarantee.
func (e *Engine) stitchInto(b *Bundle) {
	want := make(map[string]bool)
	for _, ev := range b.Events {
		if ev.Trace != "" {
			want[ev.Trace] = true
		}
	}
	spans := e.cfg.Recorder.spans(func(ev *Event) bool { return want[ev.Trace] })
	ids := obs.TraceIDs(spans)
	b.TraceCount = len(ids)
	for i := len(ids) - 1; i >= 0 && len(b.Traces) < bundleTraces; i-- { // newest first
		b.Traces = append(b.Traces, obs.FormatTrace(ids[i], obs.StitchTrace(ids[i], spans)))
	}
}

// persist writes the bundle as pretty JSON under Dir.
func (e *Engine) persist(b *Bundle) error {
	if err := os.MkdirAll(e.cfg.Dir, 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(e.cfg.Dir, b.Name+".json"), data, 0o644)
}
