// The continuous profiler: periodic CPU/heap/goroutine captures into a
// byte-bounded on-disk ring, so the profile covering an anomaly already
// exists when the trigger engine asks for it — profiling that starts
// after the page is too late for the cause.
//
// While any profiler is running, the fetch/forward hot paths run under
// pprof labels (DoLabeled), so the captured CPU samples attribute to
// the operation that burned them. The label gate is one atomic load
// when no profiler runs, keeping the unprofiled hot path untouched.

package flight

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"runtime/pprof"
	"sync"
	"sync/atomic"
	"time"
)

// ProfilerConfig parameterizes a Profiler. The zero value (plus a Dir)
// gets defaults suitable for an always-on daemon.
type ProfilerConfig struct {
	// Dir is where captures land. Required; created if missing.
	Dir string
	// Every is the capture cadence (default 30s).
	Every time.Duration
	// MaxBytes bounds the on-disk ring: after each cycle the oldest
	// captures are deleted until the directory's captures fit (default
	// 8 MiB).
	MaxBytes int64
}

// cpuWindow is each cycle's CPU-profile window, capped at half of Every
// so cycles never overlap.
const cpuWindow = 2 * time.Second

func (c ProfilerConfig) withDefaults() ProfilerConfig {
	if c.Every <= 0 {
		c.Every = 30 * time.Second
	}
	if c.MaxBytes <= 0 {
		c.MaxBytes = 8 << 20
	}
	return c
}

// profCapture is one retained capture file.
type profCapture struct {
	path string
	size int64
}

// Profiler captures profiles on a cadence. Start/Stop bracket the
// background loop; CycleNow runs one capture synchronously (the trigger
// engine uses it to guarantee a fresh capture exists in a bundle).
type Profiler struct {
	cfg ProfilerConfig

	mu       sync.Mutex
	files    []profCapture // oldest first
	seq      uint64
	cycles   atomic.Uint64
	failures atomic.Uint64

	startStop sync.Mutex
	stop      chan struct{}
	done      chan struct{}
}

// NewProfiler returns a profiler writing into cfg.Dir (created if
// missing). The background loop is not started; call Start.
func NewProfiler(cfg ProfilerConfig) (*Profiler, error) {
	cfg = cfg.withDefaults()
	if cfg.Dir == "" {
		return nil, fmt.Errorf("flight: profiler needs a directory")
	}
	if err := os.MkdirAll(cfg.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("flight: profiler dir: %w", err)
	}
	return &Profiler{cfg: cfg}, nil
}

// Start launches the capture loop and raises the hot-path label gate.
// No-op if already running.
func (p *Profiler) Start() {
	p.startStop.Lock()
	defer p.startStop.Unlock()
	if p.stop != nil {
		return
	}
	p.stop = make(chan struct{})
	p.done = make(chan struct{})
	labelsActive.Add(1)
	go p.loop(p.stop, p.done)
}

// Stop halts the capture loop (waiting out an in-progress cycle) and
// lowers the label gate. No-op if not running.
func (p *Profiler) Stop() {
	p.startStop.Lock()
	defer p.startStop.Unlock()
	if p.stop == nil {
		return
	}
	close(p.stop)
	<-p.done
	p.stop, p.done = nil, nil
	labelsActive.Add(-1)
}

func (p *Profiler) loop(stop, done chan struct{}) {
	defer close(done)
	ticker := time.NewTicker(p.cfg.Every)
	defer ticker.Stop()
	for {
		select {
		case <-stop:
			return
		case <-ticker.C:
			p.cycle(stop)
		}
	}
}

// CycleNow runs one capture cycle synchronously: a CPU window, a heap
// snapshot, and a goroutine profile, then prunes the ring.
func (p *Profiler) CycleNow() error {
	return p.cycle(nil)
}

func (p *Profiler) cycle(stop chan struct{}) error {
	p.mu.Lock()
	p.seq++
	seq := p.seq
	p.mu.Unlock()

	var firstErr error
	record := func(err error) {
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}

	// CPU first: the window is the cycle's long pole. Another profiler
	// (or a test harness) may own the process's single CPU profile slot;
	// that skips the CPU capture, not the cycle.
	cpuPath := filepath.Join(p.cfg.Dir, fmt.Sprintf("cpu-%06d.pprof", seq))
	if f, err := os.Create(cpuPath); err != nil {
		record(err)
	} else if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		os.Remove(cpuPath)
	} else {
		timer := time.NewTimer(min(cpuWindow, p.cfg.Every/2))
		select {
		case <-timer.C:
		case <-stop:
			timer.Stop()
		}
		pprof.StopCPUProfile()
		record(f.Close())
		p.track(cpuPath)
	}

	for _, prof := range []string{"heap", "goroutine"} {
		path := filepath.Join(p.cfg.Dir, fmt.Sprintf("%s-%06d.pprof", prof, seq))
		f, err := os.Create(path)
		if err != nil {
			record(err)
			continue
		}
		if err := pprof.Lookup(prof).WriteTo(f, 0); err != nil {
			record(err)
		}
		record(f.Close())
		p.track(path)
	}

	p.prune()
	p.cycles.Add(1)
	if firstErr != nil {
		p.failures.Add(1)
	}
	return firstErr
}

// track registers a finished capture file in the ring.
func (p *Profiler) track(path string) {
	info, err := os.Stat(path)
	if err != nil {
		return
	}
	p.mu.Lock()
	p.files = append(p.files, profCapture{path: path, size: info.Size()})
	p.mu.Unlock()
}

// prune deletes oldest captures until the ring fits MaxBytes.
func (p *Profiler) prune() {
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for _, f := range p.files {
		total += f.size
	}
	for len(p.files) > 0 && total > p.cfg.MaxBytes {
		victim := p.files[0]
		p.files = p.files[1:]
		total -= victim.size
		os.Remove(victim.path)
	}
}

// Files returns the retained capture paths, newest first. Nil-safe.
func (p *Profiler) Files() []string {
	if p == nil {
		return nil
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]string, 0, len(p.files))
	for i := len(p.files) - 1; i >= 0; i-- {
		out = append(out, p.files[i].path)
	}
	return out
}

// Cycles returns how many capture cycles have completed. Nil-safe.
func (p *Profiler) Cycles() uint64 {
	if p == nil {
		return 0
	}
	return p.cycles.Load()
}

// Failures returns how many cycles hit a capture error. Nil-safe.
func (p *Profiler) Failures() uint64 {
	if p == nil {
		return 0
	}
	return p.failures.Load()
}

// DiskBytes returns the ring's current on-disk footprint. Nil-safe.
func (p *Profiler) DiskBytes() int64 {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	var total int64
	for _, f := range p.files {
		total += f.size
	}
	return total
}

// --- Hot-path labels --------------------------------------------------

// labelsActive counts running profilers; the hot-path label sites check
// it with one atomic load before paying for pprof label plumbing.
var labelsActive atomic.Int32

// DoLabeled runs fn under a pprof "op" label when a profiler is
// capturing, and directly (one atomic load, zero allocations) when not.
// The fetch and forward hot paths wrap themselves in this, so CPU
// samples in the captured profiles attribute to the operation.
func DoLabeled(ctx context.Context, op string, fn func(context.Context)) {
	if labelsActive.Load() == 0 {
		fn(ctx)
		return
	}
	pprof.Do(ctx, pprof.Labels("op", op), fn)
}

// GoroutineDump renders the current goroutine stacks in the
// debug-text form (pprof "goroutine" profile, debug=2): what every
// goroutine is blocked on, with stack traces — the /debug/stack page
// and the bundle's wedge evidence.
func GoroutineDump() []byte {
	var buf bytes.Buffer
	if err := pprof.Lookup("goroutine").WriteTo(&buf, 2); err != nil {
		return []byte("goroutine dump failed: " + err.Error() + "\n")
	}
	return buf.Bytes()
}
