// Continuous path-health telemetry: the rolling per-path quality signal
// that turns finished operations into something an operator (or the
// registry) can rank paths by.
//
// The paper's Section V result — intermediate-node utilization tracks
// delivered improvement, and a small subset of candidates captures
// nearly all gain — is only actionable if each path's recent quality is
// known continuously. Detour and RON both built their overlays on
// exactly this kind of long-running path monitor. HealthMonitor is that
// backbone for this repo: it folds the operation records the engine
// already hands its Metrics (zero new instrumentation points on the hot
// path; a nil monitor is never linked, so the unobserved path pays
// nothing) into per-path rolling windows — a ring of fixed-duration buckets
// tracking success/failure/retry counts, latency quantiles, and a
// throughput EWMA pair — and collapses each window into one health
// score with hysteresis, so the healthy → degraded → down transitions
// are damped rather than flapping with every sample.
//
// Folds are the one writer: a transition commits only when a sample is
// folded in, and every read (Snapshot, PathHealth) is a view that
// commits nothing. A path gone quiet keeps its last verdict until its
// next fold, while its score and last-success age still show it aging.
//
// Time is float64 seconds throughout, matching transport timestamps:
// fed operation records the monitor runs on their time (which keeps it
// deterministic on the virtual-time simulator), while daemons that feed
// it directly install a wall-clock via HealthConfig.Clock.
package obs

import (
	"encoding/json"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
)

// HealthState is a path's damped condition.
type HealthState uint8

// Health states, best to worst. Unknown means no samples have arrived
// yet; transitions between the other three pass the hysteresis filter.
const (
	HealthUnknown HealthState = iota
	HealthHealthy
	HealthDegraded
	HealthDown
)

func (s HealthState) String() string {
	switch s {
	case HealthHealthy:
		return "healthy"
	case HealthDegraded:
		return "degraded"
	case HealthDown:
		return "down"
	}
	return "unknown"
}

// MarshalJSON renders the state as its name, so /debug/paths reads
// "healthy" rather than an enum ordinal.
func (s HealthState) MarshalJSON() ([]byte, error) { return json.Marshal(s.String()) }

// UnmarshalJSON parses the symbolic form back; unrecognized names decode
// as HealthUnknown so snapshots from newer writers still load.
func (s *HealthState) UnmarshalJSON(b []byte) error {
	var name string
	if err := json.Unmarshal(b, &name); err != nil {
		return err
	}
	switch name {
	case "healthy":
		*s = HealthHealthy
	case "degraded":
		*s = HealthDegraded
	case "down":
		*s = HealthDown
	default:
		*s = HealthUnknown
	}
	return nil
}

// HealthConfig parameterizes a HealthMonitor. The zero value gets
// defaults suitable for interactive monitoring (60 s window); tests and
// fast loopback runs shrink Window to observe transitions quickly.
type HealthConfig struct {
	// Window is how many seconds of history fold into the score
	// (default 60). Samples older than Window rotate out of the ring.
	Window float64
	// Buckets is the ring granularity (default 12, i.e. 5 s buckets at
	// the default window).
	Buckets int

	// MaxSuccessAge is how many seconds without a success drive the
	// freshness factor (and with it the score) to zero (default Window).
	MaxSuccessAge float64

	// Clock supplies "now" in seconds for direct Observe calls and
	// snapshot aging. Nil means record time: the monitor's high-water
	// sample timestamp, which keeps simulator-fed monitors deterministic.
	Clock func() float64

	// OnTransition, when set, is called for every committed state change
	// with the path key and the transition. It runs after the monitor's
	// lock is released, so the callback may call back into the monitor
	// (Snapshot, PathHealth); slow callbacks still delay the folding
	// caller.
	OnTransition func(path string, tr HealthTransition)
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Window <= 0 {
		c.Window = 60
	}
	if c.Buckets <= 0 {
		c.Buckets = 12
	}
	if c.MaxSuccessAge <= 0 {
		c.MaxSuccessAge = c.Window
	}
	return c
}

// The throughput EWMA pair and the state bands. The fast average tracks
// the current rate, the slow one remembers the path's norm, and their
// ratio detects collapse without an absolute throughput target. A score
// >= healthyScore is healthy, < downScore is down, between them degraded.
const (
	fastAlpha    = 0.4
	slowAlpha    = 0.05
	healthyScore = 0.75
	downScore    = 0.35
)

// The transition damping: a new state must win hysteresis consecutive
// folds before it commits, and a state holds at least dwellBuckets
// bucket widths before the next transition. A transition demanded before
// the dwell expires is suppressed and counted as a damped flap.
const (
	hysteresis   = 2
	dwellBuckets = 2
)

// Latency histogram geometry: log2 bins from 0.1 ms up, so loopback
// microseconds and dial-up tens of seconds both resolve. Bin i covers
// [healthLatLo·2^i, healthLatLo·2^(i+1)).
const (
	healthLatBins = 36
	healthLatLo   = 1e-4
)

func healthLatBin(lat float64) int {
	if lat <= healthLatLo {
		return 0
	}
	b := int(math.Log2(lat / healthLatLo))
	if b >= healthLatBins {
		return healthLatBins - 1
	}
	return b
}

// healthBucket is one fixed-duration slice of a path's history. num is
// the absolute bucket number (floor(t/width)); a slot whose num is stale
// is reset before reuse, which is how old samples rotate out without a
// sweeper goroutine.
type healthBucket struct {
	num     int64
	ok      int64
	fail    int64
	retry   int64
	bytes   int64
	latBins [healthLatBins]int32
}

func (b *healthBucket) reset(num int64) {
	*b = healthBucket{num: num}
}

// HealthTransition is one committed state change, kept (bounded) for
// /debug/paths so an operator can see the path's recent trajectory.
type HealthTransition struct {
	From  HealthState `json:"from"`
	To    HealthState `json:"to"`
	Time  float64     `json:"time"`
	Score float64     `json:"score"`
}

// healthHistoryCap bounds the per-path transition log.
const healthHistoryCap = 16

// pathHealth is one path's rolling state.
type pathHealth struct {
	buckets []healthBucket

	fast, slow float64 // throughput EWMAs, Mb/s
	haveEWMA   bool

	lastSuccess float64
	everSuccess bool

	state      HealthState
	stateSince float64
	pending    HealthState
	pendingN   int

	transitions     int64
	flapsSuppressed int64
	history         []HealthTransition
}

// HealthMonitor folds transfer outcomes into per-path rolling windows
// and keeps a damped health state per path. It is safe for concurrent
// use: the engine's operations reach it through Fold, usually via the
// Metrics.Health link, and daemons feed their own outcomes directly
// through Observe.
type HealthMonitor struct {
	cfg HealthConfig

	mu      sync.Mutex
	paths   map[string]*pathHealth
	hiwater float64 // newest event time seen (event-time "now")
}

// NewHealthMonitor returns a monitor with cfg's gaps filled by defaults.
func NewHealthMonitor(cfg HealthConfig) *HealthMonitor {
	return &HealthMonitor{cfg: cfg.withDefaults(), paths: make(map[string]*pathHealth)}
}

// Config returns the monitor's effective (default-filled) configuration.
func (m *HealthMonitor) Config() HealthConfig { return m.cfg }

func (m *HealthMonitor) bucketWidth() float64 {
	return m.cfg.Window / float64(m.cfg.Buckets)
}

// now returns the monitor's current time under m.mu: the configured
// clock, or the high-water event time.
func (m *HealthMonitor) now() float64 {
	if m.cfg.Clock != nil {
		return m.cfg.Clock()
	}
	return m.hiwater
}

func (m *HealthMonitor) path(key string) *pathHealth {
	p := m.paths[key]
	if p == nil {
		p = &pathHealth{buckets: make([]healthBucket, m.cfg.Buckets), state: HealthUnknown}
		// A copy for the key, so a key read out of a caller's record never
		// makes that record escape (see Fold).
		m.paths[strings.Clone(key)] = p
	}
	return p
}

// bucket returns the bucket covering time t, resetting a stale slot.
func (m *HealthMonitor) bucket(p *pathHealth, t float64) *healthBucket {
	num := int64(t / m.bucketWidth())
	b := &p.buckets[num%int64(len(p.buckets))]
	if b.num != num {
		b.reset(num)
	}
	return b
}

// fold is the single write path: it records one outcome sample at time t
// (t < 0: at the monitor's clock, read under the same lock) and
// re-evaluates the path's state at the monitor's clock.
func (m *HealthMonitor) fold(key string, t float64, class ErrClass, latency float64, bytes int64, retry bool) {
	m.mu.Lock()
	if t < 0 {
		t = m.now()
	}
	if t > m.hiwater {
		m.hiwater = t
	}
	if class == ClassCanceled && !retry {
		// The caller abandoned the operation; that says nothing about the
		// path. Not a sample, and no entry for a path never measured.
		m.mu.Unlock()
		return
	}
	p := m.path(key)
	b := m.bucket(p, t)
	switch {
	case retry:
		b.retry++
	case class == ClassOK:
		b.ok++
		b.bytes += bytes
		if latency > 0 {
			b.latBins[healthLatBin(latency)]++
			if bytes > 0 {
				m.foldEWMA(p, float64(bytes)*8/latency/1e6)
			}
		}
		p.lastSuccess = t
		p.everSuccess = true
	default:
		b.fail++
	}
	tr, moved := m.evaluate(p, m.now())
	m.mu.Unlock()
	// The callback runs unlocked: OnTransition may read back into this
	// monitor. It gets its own copy of the key, so a key read out of a
	// caller's record never makes that record escape (see Fold).
	if moved && m.cfg.OnTransition != nil {
		m.cfg.OnTransition(strings.Clone(key), tr)
	}
}

func (m *HealthMonitor) foldEWMA(p *pathHealth, mbps float64) {
	if !p.haveEWMA {
		p.fast, p.slow, p.haveEWMA = mbps, mbps, true
		return
	}
	p.fast += fastAlpha * (mbps - p.fast)
	p.slow += slowAlpha * (mbps - p.slow)
}

// windowStats aggregates the live buckets at time now.
type windowStats struct {
	ok, fail, retry int64
	bytes           int64
	latBins         [healthLatBins]int64
}

func (m *HealthMonitor) window(p *pathHealth, now float64) windowStats {
	var w windowStats
	oldest := int64(now/m.bucketWidth()) - int64(len(p.buckets)) + 1
	for i := range p.buckets {
		b := &p.buckets[i]
		if b.num < oldest || (b.ok|b.fail|b.retry) == 0 {
			continue
		}
		w.ok += b.ok
		w.fail += b.fail
		w.retry += b.retry
		w.bytes += b.bytes
		for j, n := range b.latBins {
			w.latBins[j] += int64(n)
		}
	}
	return w
}

// latQuantile estimates the q-th latency quantile from merged log2 bins,
// returning the geometric midpoint of the bin holding the target rank.
func latQuantile(bins [healthLatBins]int64, q float64) float64 {
	var total int64
	for _, n := range bins {
		total += n
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i, n := range bins {
		if n == 0 {
			continue
		}
		cum += float64(n)
		if rank <= cum {
			lo := healthLatLo * math.Pow(2, float64(i))
			return lo * math.Sqrt2 // geometric midpoint of [lo, 2lo)
		}
	}
	return healthLatLo * math.Pow(2, healthLatBins)
}

// scoreOf collapses a window into the health score in [0, 1]:
//
//	availability a = ok / (ok + fail + retry/2)   (1 with no samples)
//	throughput   r = clamp(fast/slow, 0, 1)       (1 before any EWMA)
//	freshness    f = clamp(1 − successAge/MaxSuccessAge, 0, 1)
//	score          = a · (0.5 + 0.5·r) · f
//
// The multiplicative form means hard failure (a→0) or staleness (f→0)
// alone drives the score to zero, while a pure throughput collapse with
// requests still succeeding floors at 0.5 — degraded, not down.
func (m *HealthMonitor) scoreOf(p *pathHealth, w windowStats, now float64) float64 {
	avail := 1.0
	if den := float64(w.ok) + float64(w.fail) + float64(w.retry)/2; den > 0 {
		avail = float64(w.ok) / den
	}
	tput := 1.0
	if p.haveEWMA && p.slow > 0 {
		tput = p.fast / p.slow
		if tput > 1 {
			tput = 1
		}
		if tput < 0 {
			tput = 0
		}
	}
	fresh := 0.0
	if p.everSuccess {
		fresh = 1 - (now-p.lastSuccess)/m.cfg.MaxSuccessAge
		if fresh < 0 {
			fresh = 0
		}
		if fresh > 1 {
			fresh = 1
		}
	}
	return avail * (0.5 + 0.5*tput) * fresh
}

func (m *HealthMonitor) target(score float64) HealthState {
	switch {
	case score >= healthyScore:
		return HealthHealthy
	case score < downScore:
		return HealthDown
	}
	return HealthDegraded
}

// evaluate scores the path at now and applies the hysteresis state
// machine, reporting the transition it committed, if any: a new target
// state must win hysteresis consecutive folds, and no transition commits
// before dwellBuckets bucket widths in the current state —
// demanded-but-dwelling transitions count as suppressed flaps. Only fold
// calls it.
func (m *HealthMonitor) evaluate(p *pathHealth, now float64) (HealthTransition, bool) {
	score := m.scoreOf(p, m.window(p, now), now)
	want := m.target(score)
	if p.state == HealthUnknown {
		// First sample: adopt the observed state directly.
		p.state = want
		p.stateSince = now
		return HealthTransition{}, false
	}
	if want == p.state {
		p.pendingN = 0
		return HealthTransition{}, false
	}
	if want == p.pending {
		p.pendingN++
	} else {
		p.pending = want
		p.pendingN = 1
	}
	if p.pendingN < hysteresis {
		return HealthTransition{}, false
	}
	if now-p.stateSince < dwellBuckets*m.bucketWidth() {
		p.flapsSuppressed++
		return HealthTransition{}, false
	}
	tr := HealthTransition{From: p.state, To: want, Time: now, Score: score}
	p.history = append(p.history, tr)
	if len(p.history) > healthHistoryCap {
		p.history = p.history[len(p.history)-healthHistoryCap:]
	}
	p.state = want
	p.stateSince = now
	p.transitions++
	p.pendingN = 0
	return tr, true
}

// --- Operation feeding ----------------------------------------------

// Fold folds one finished operation: each leg once, in the order the
// engine issued them, at its own End — its cold retries first, at the
// times they carry, as half-weight failure signals. Canceled legs (a
// reaped loser, an abandoned operation) are not samples. Fold keeps
// nothing op points to.
func (m *HealthMonitor) Fold(op *Op) {
	for i := range op.Legs {
		l := &op.Legs[i]
		for _, at := range l.Retries {
			m.fold(l.Route, at, ClassFailed, 0, 0, true)
		}
		m.fold(l.Route, l.End, l.Class, l.End-l.Start, l.Bytes, false)
	}
}

// --- Direct feeding (daemons' own outcomes) -------------------------

// Observe records one outcome on key at the monitor's clock: the relay
// feeds forward outcomes per origin, the origin serve outcomes per
// object. latency in seconds; bytes feed the throughput EWMA.
func (m *HealthMonitor) Observe(key string, class ErrClass, latency float64, bytes int64) {
	m.fold(key, -1, class, latency, bytes, false)
}

// --- Snapshots --------------------------------------------------------

// PathHealth is one path's point-in-time health view.
type PathHealth struct {
	Path  string      `json:"path"`
	State HealthState `json:"state"`
	Score float64     `json:"score"`

	// Window counts.
	Ok      int64 `json:"ok"`
	Failed  int64 `json:"failed"`
	Retries int64 `json:"retries"`
	Bytes   int64 `json:"bytes"`

	SuccessRate float64 `json:"success_rate"`

	// ThroughputEWMA is the fast average (Mb/s); ThroughputRef the slow
	// one. Their ratio is the score's throughput factor.
	ThroughputEWMA float64 `json:"throughput_ewma_mbps"`
	ThroughputRef  float64 `json:"throughput_ref_mbps"`

	LatencyP50 float64 `json:"latency_p50_s"`
	LatencyP90 float64 `json:"latency_p90_s"`
	LatencyP99 float64 `json:"latency_p99_s"`

	// LastSuccessAge is seconds since the last success, -1 before any.
	LastSuccessAge float64 `json:"last_success_age_s"`

	Transitions     int64              `json:"transitions"`
	FlapsSuppressed int64              `json:"flaps_suppressed"`
	History         []HealthTransition `json:"history,omitempty"`
}

// HealthSnapshot is the whole monitor at one instant, ready for the
// /debug/paths endpoint.
type HealthSnapshot struct {
	Time  float64      `json:"time"`
	Paths []PathHealth `json:"paths"`
}

// JSON renders the snapshot as indented JSON. Built from plain fields,
// so marshaling cannot fail.
func (s HealthSnapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic("obs: health snapshot marshal: " + err.Error())
	}
	return b
}

// Path returns the snapshot entry for one path.
func (s HealthSnapshot) Path(key string) (PathHealth, bool) {
	for _, p := range s.Paths {
		if p.Path == key {
			return p, true
		}
	}
	return PathHealth{}, false
}

// Snapshot captures every path's health as a view that commits nothing:
// the state and history the folds committed, and the score, window
// counts and last-success age aged to the monitor's clock, so a path
// gone quiet shows its decay before its next fold moves the verdict.
func (m *HealthMonitor) Snapshot() HealthSnapshot {
	m.mu.Lock()
	now := m.now()
	s := HealthSnapshot{Time: now, Paths: make([]PathHealth, 0, len(m.paths))}
	for key, p := range m.paths {
		w := m.window(p, now)
		ph := PathHealth{
			Path:            key,
			State:           p.state,
			Score:           m.scoreOf(p, w, now),
			Ok:              w.ok,
			Failed:          w.fail,
			Retries:         w.retry,
			Bytes:           w.bytes,
			ThroughputEWMA:  p.fast,
			ThroughputRef:   p.slow,
			LatencyP50:      latQuantile(w.latBins, 0.50),
			LatencyP90:      latQuantile(w.latBins, 0.90),
			LatencyP99:      latQuantile(w.latBins, 0.99),
			LastSuccessAge:  -1,
			Transitions:     p.transitions,
			FlapsSuppressed: p.flapsSuppressed,
			History:         append([]HealthTransition(nil), p.history...),
		}
		if den := float64(w.ok) + float64(w.fail) + float64(w.retry)/2; den > 0 {
			ph.SuccessRate = float64(w.ok) / den
		} else {
			ph.SuccessRate = 1
		}
		if p.everSuccess {
			ph.LastSuccessAge = now - p.lastSuccess
		}
		s.Paths = append(s.Paths, ph)
	}
	m.mu.Unlock()
	sort.Slice(s.Paths, func(i, j int) bool { return s.Paths[i].Path < s.Paths[j].Path })
	return s
}

// PathHealth returns one path's current health view (a zero view, state
// HealthUnknown, and false if the path was never sampled).
func (m *HealthMonitor) PathHealth(key string) (PathHealth, bool) {
	return m.Snapshot().Path(key)
}

// WriteProm renders the health view as Prometheus gauges under prefix:
// per-path score, state ordinal, throughput EWMA, and transition
// counters.
func (s HealthSnapshot) WriteProm(p *Prom, prefix string) {
	if len(s.Paths) == 0 {
		return
	}
	score := make(map[string]float64, len(s.Paths))
	state := make(map[string]float64, len(s.Paths))
	ewma := make(map[string]float64, len(s.Paths))
	trans := make(map[string]float64, len(s.Paths))
	flaps := make(map[string]float64, len(s.Paths))
	for _, ph := range s.Paths {
		score[ph.Path] = ph.Score
		state[ph.Path] = float64(ph.State)
		ewma[ph.Path] = ph.ThroughputEWMA
		trans[ph.Path] = float64(ph.Transitions)
		flaps[ph.Path] = float64(ph.FlapsSuppressed)
	}
	p.LabeledGauge(prefix+"_path_health", "Damped path health score in [0,1].", "route", score)
	p.LabeledGauge(prefix+"_path_health_state", "Path state: 0 unknown, 1 healthy, 2 degraded, 3 down.", "route", state)
	p.LabeledGauge(prefix+"_path_throughput_ewma_mbps", "Fast throughput EWMA per path, Mb/s.", "route", ewma)
	p.LabeledCounter(prefix+"_path_health_transitions_total", "Committed health-state transitions.", "route", trans)
	p.LabeledCounter(prefix+"_path_health_flaps_suppressed_total", "Transitions suppressed by dwell damping.", "route", flaps)
}

// WallClock is a ready-made HealthConfig.Clock: seconds since the
// monitor (or daemon) started.
func WallClock() func() float64 {
	start := time.Now()
	return func() float64 { return time.Since(start).Seconds() }
}
