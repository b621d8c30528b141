package main

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"os"
	"runtime"
	"runtime/debug"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/stats"
)

const (
	// setups is how many rounds a run has: each builds the topology, warms
	// it up, measures its share of the trials and tears it down, so that
	// no single slow start or late collection decides setup_s or
	// peak_rss_MB.
	setups = 6
	// trials is how many timed windows an untraced run measures. Every
	// end-to-end metric is computed per trial, because single windows on a
	// shared 2-vCPU box swing 15-20%; endToEndMetric picks what to report.
	trials = 12
	// tracedTrials is the number of traced (and of untraced comparison)
	// windows in a traced run.
	tracedTrials = 3
	// opDeadline bounds one operation; wallCap bounds one workload's run,
	// so a broken build reports and exits instead of hanging.
	opDeadline = 10 * time.Second
	wallCap    = 120 * time.Second
)

// runConfig is what one workload run needs to know.
type runConfig struct {
	seed    int64
	seconds float64 // length of the timed phase
	// scale shrinks fixed work (warm-up ops, table sizes, ladder calls);
	// 1 everywhere except the smoke test.
	scale float64
	trace bool
}

// scaled returns n shrunk by the run's scale, at least 1.
func (c runConfig) scaled(n int) int {
	return max(1, int(float64(n)*c.scale))
}

// instance is one set-up workload: servers listening on loopback, clients
// connected, nothing warmed yet.
type instance interface {
	// op runs the client's next operation and returns an error when it
	// failed or its result was wrong. tr is nil in untraced trials.
	op(ctx context.Context, tr *tracer) error
	// begin starts the window the workload counters cover.
	begin()
	// check verifies the workload's invariants between trials.
	check() error
	// counters reports the per-layer workload counters since begin.
	counters() map[string]float64
	close()
}

// workloadDef binds a workload's name to its shape and constructor.
type workloadDef struct {
	name       string
	why        string
	warmupOps  int // fixed work done by every set-up
	bytesPerOp int64
	setup      func(cfg runConfig) (instance, error)
}

// usage is the process-wide resource reading taken at trial boundaries.
type usage struct {
	at      time.Time
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func readUsage() usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	var ru syscall.Rusage
	// Getrusage cannot fail with RUSAGE_SELF and a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	cpu := time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	return usage{at: time.Now(), cpu: cpu, mallocs: ms.Mallocs, bytes: ms.TotalAlloc}
}

// trialResult is one timed window.
type trialResult struct {
	traced  bool
	ops     int
	failed  int
	wall    time.Duration
	latency []float64 // ms, sorted
	cpu     time.Duration
	mallocs uint64
	bytes   uint64
}

func (t trialResult) perOp(name string) float64 {
	ops := float64(t.ops)
	switch name {
	case "ops_per_s":
		return ops / t.wall.Seconds()
	case "latency_p50_ms":
		return stats.Quantile(t.latency, 0.50)
	case "latency_p90_ms":
		return stats.Quantile(t.latency, 0.90)
	case "cpu_ms_per_op":
		return float64(t.cpu) / float64(time.Millisecond) / ops
	case "allocs_per_op":
		return float64(t.mallocs) / ops
	case "alloc_KB_per_op":
		return float64(t.bytes) / 1024 / ops
	}
	panic("bench: unknown per-trial metric " + name)
}

// quartiles returns the first quartile, median and third quartile of
// values (linear interpolation, like Python's inclusive method).
func quartiles(values []float64) (q1, med, q3 float64) {
	s := slices.Clone(values)
	slices.Sort(s)
	return stats.Quantile(s, 0.25), stats.Quantile(s, 0.5), stats.Quantile(s, 0.75)
}

// runTrial drives the client in a closed loop for dur and returns what the
// window cost. The client finishes the operation it is in.
func runTrial(inst instance, dur time.Duration, tr *tracer) trialResult {
	res := trialResult{traced: tr != nil, latency: make([]float64, 0, 1<<14)}
	before := readUsage()
	deadline := before.at.Add(dur)
	for {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		t0 := time.Now()
		err := inst.op(ctx, tr)
		end := time.Now()
		cancel()
		res.latency = append(res.latency, float64(end.Sub(t0))/float64(time.Millisecond))
		if err != nil {
			if res.failed++; res.failed <= 3 {
				fmt.Fprintf(os.Stderr, "bench: failed op: %v\n", err)
			}
		}
		if !end.Before(deadline) {
			break
		}
	}
	after := readUsage()
	res.ops = len(res.latency)
	res.wall = after.at.Sub(before.at)
	res.cpu = after.cpu - before.cpu
	res.mallocs = after.mallocs - before.mallocs
	res.bytes = after.bytes - before.bytes
	slices.Sort(res.latency)
	return res
}

// warmUp runs the set-up's fixed operations. A failure here is fatal:
// nothing measured after it could be trusted.
func warmUp(inst instance, ops int) error {
	for i := 0; i < ops; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		err := inst.op(ctx, nil)
		cancel()
		if err != nil {
			return fmt.Errorf("warm-up op %d: %w", i, err)
		}
	}
	return nil
}

// report is everything one workload run produced.
type report struct {
	def        workloadDef
	cfg        runConfig
	setupTimes []float64 // s
	trials     []trialResult
	counters   map[string]float64
	peakRSSMB  []float64 // one per round
	problems   []string  // invariant violations; any makes the run incorrect
	capped     bool      // the wall cap cut the run short
	shape      machineShape
}

func (r *report) attempted() (ops, failed int) {
	for _, t := range r.trials {
		ops += t.ops
		failed += t.failed
	}
	return ops, failed + len(r.problems)
}

func (r *report) correct() bool {
	_, failed := r.attempted()
	return failed == 0 && !r.capped
}

// values returns one end-to-end metric computed on each traced (or each
// untraced) trial.
func (r *report) values(name string, traced bool) []float64 {
	var out []float64
	for _, t := range r.trials {
		if t.traced == traced {
			out = append(out, t.perOp(name))
		}
	}
	return out
}

// endToEndMetric returns the value one end-to-end metric reports for an
// untraced run, and the quartiles of the per-trial values it came from.
//
// A timed metric reports its least-disturbed trial. The noise on a shared
// box is one-sided — a neighbour's load only ever slows a window — so the
// best of twelve windows repeated across processes within 2-5% in sizing
// runs where their median moved 4-8%. Allocation counts, which a
// neighbour cannot touch, report the median, and so does peak_rss_MB
// over the rounds. setup_s is timed, so it reports the least-disturbed
// set-up: in ten runs through a noisy hour the median of six spread 10%
// where their minimum spread 3%.
func (r *report) endToEndMetric(m metricSpec) (value, q1, q3 float64) {
	switch m.Name {
	case "setup_s":
		q1, _, q3 = quartiles(r.setupTimes)
		return slices.Min(r.setupTimes), q1, q3
	case "peak_rss_MB":
		q1, value, q3 = quartiles(r.peakRSSMB)
		return value, q1, q3
	}
	values := r.values(m.Name, false)
	q1, value, q3 = quartiles(values)
	switch {
	case m.Name == "allocs_per_op" || m.Name == "alloc_KB_per_op":
	case m.Better == "higher":
		value = slices.Max(values)
	default:
		value = slices.Min(values)
	}
	return value, q1, q3
}

// traceOverheadPct compares traced and untraced windows of one run.
func (r *report) traceOverheadPct() float64 {
	plain, traced := r.values("ops_per_s", false), r.values("ops_per_s", true)
	if len(plain) == 0 || len(traced) == 0 {
		return 0
	}
	return (stats.Median(plain) - stats.Median(traced)) / stats.Median(plain) * 100
}

// runWorkload measures one workload. The run is six rounds: set the
// topology up and warm it (timed: setup_s), measure two windows on it —
// one, alternately untraced and traced with spans going to tr, in a traced
// run — and tear it down. The set-ups are spread over the run because the
// box's slow phases last seconds: back to back, all of them would land in
// one.
func runWorkload(def workloadDef, cfg runConfig, tr *tracer) (*report, error) {
	rep := &report{def: def, cfg: cfg, shape: readMachineShape()}
	windows := trials
	if cfg.trace {
		windows = 2 * tracedTrials
	}
	dur := time.Duration(cfg.seconds / float64(windows) * float64(time.Second))
	counters := map[string][]float64{}
	idle := runtime.NumGoroutine()
	start := time.Now()
	for i := 0; i < setups && !rep.capped; i++ {
		resetPeakRSS()
		t0 := time.Now()
		inst, err := def.setup(cfg)
		if err != nil {
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		if err := warmUp(inst, cfg.scaled(def.warmupOps)); err != nil {
			inst.close()
			return nil, fmt.Errorf("set-up %d: %w", i, err)
		}
		rep.setupTimes = append(rep.setupTimes, time.Since(t0).Seconds())
		inst.begin()
		for w := i * windows / setups; w < (i+1)*windows/setups && !rep.capped; w++ {
			var wtr *tracer
			if cfg.trace && w%2 == 1 {
				wtr = tr
			}
			rep.trials = append(rep.trials, runTrial(inst, dur, wtr))
			// A violation every round repeats is reported once.
			if err := inst.check(); err != nil && !slices.Contains(rep.problems, err.Error()) {
				rep.problems = append(rep.problems, err.Error())
			}
			rep.capped = time.Since(start) > wallCap
		}
		for name, v := range inst.counters() {
			counters[name] = append(counters[name], v)
		}
		rep.peakRSSMB = append(rep.peakRSSMB, peakRSSMB())
		inst.close()
		// Collect the torn-down topology and return its pages, so that
		// every set-up starts where the first did and peak_rss_MB does not
		// depend on where the GC cycle happened to stand. The server
		// goroutines hold the topology until they have seen their
		// connections close, so wait for them first.
		for wait := time.Now(); runtime.NumGoroutine() > idle && time.Since(wait) < time.Second; {
			time.Sleep(time.Millisecond)
		}
		debug.FreeOSMemory()
	}
	rep.counters = map[string]float64{}
	for name, perRound := range counters {
		_, rep.counters[name], _ = quartiles(perRound)
	}
	rep.shape.LoadEnd = loadAverage()
	return rep, nil
}

// resetPeakRSS restarts the kernel's high-water mark of the resident set,
// so that each round reports its own peak: where the collector happens to
// stand during a set-up moves one round's peak by a fifth, and the highest
// of six inherits all of that. Where the kernel refuses, the mark stays
// the process's.
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() float64 {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return math.NaN()
	}
	for _, line := range strings.Split(string(data), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			if fields := strings.Fields(rest); len(fields) > 0 { // "VmHWM:  13312 kB"
				if kb, err := strconv.ParseFloat(fields[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	return math.NaN()
}

// dialCounter wraps a dial function, counting connections opened and
// dial errors by errno. The workloads open thousands of short loopback
// connections per second; EADDRNOTAVAIL would mean the harness ran the
// host out of ports and measured that instead of the system.
type dialCounter struct {
	dials atomic.Int64

	mu   sync.Mutex
	errs map[string]int
}

func (d *dialCounter) wrap(dial func(network, addr string) (net.Conn, error)) func(network, addr string) (net.Conn, error) {
	return func(network, addr string) (net.Conn, error) {
		d.dials.Add(1)
		conn, err := dial(network, addr)
		if err != nil {
			key := "other"
			var errno syscall.Errno
			if errors.As(err, &errno) {
				key = fmt.Sprintf("errno %d (%v)", int(errno), errno)
			}
			d.mu.Lock()
			if d.errs == nil {
				d.errs = make(map[string]int)
			}
			d.errs[key]++
			d.mu.Unlock()
		}
		return conn, err
	}
}

// problem reports dial errors as an invariant violation: a workload on
// which no operation fails makes none.
func (d *dialCounter) problem(who string) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if len(d.errs) == 0 {
		return nil
	}
	return fmt.Errorf("%s dial errors by errno: %v", who, d.errs)
}
