// Continuous path-health telemetry: the rolling per-path quality signal
// that turns the event stream into something an operator (or the
// registry) can rank paths by.
//
// The paper's Section V result — intermediate-node utilization tracks
// delivered improvement, and a small subset of candidates captures
// nearly all gain — is only actionable if each path's recent quality is
// known continuously. Detour and RON both built their overlays on
// exactly this kind of long-running path monitor. HealthMonitor is that
// backbone for this repo: it folds the selection-lifecycle events the
// stack already emits (zero new instrumentation points on the hot path;
// a nil monitor is never attached, so the unobserved path pays nothing)
// into per-path rolling windows — a ring of fixed-duration buckets
// tracking success/failure/retry counts, latency quantiles, and a
// throughput EWMA pair — and collapses each window into one health
// score with hysteresis, so the healthy → degraded → down transitions
// are damped rather than flapping with every sample.
//
// Time is float64 seconds throughout, matching event timestamps: fed
// from an Observer stream the monitor runs on event time (which keeps
// it deterministic on the virtual-time simulator), while daemons that
// feed it directly install a wall-clock via HealthConfig.Clock.
package obs

import (
	"encoding/json"
	"math"
	"sort"
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

	// FastAlpha and SlowAlpha smooth the throughput EWMA pair (defaults
	// 0.4 and 0.05): the fast average tracks the current rate, the slow
	// one remembers the path's norm, and their ratio detects collapse
	// without an absolute throughput target.
	FastAlpha float64
	SlowAlpha float64

	// HealthyScore and DownScore bound the state bands: score >=
	// HealthyScore is healthy (default 0.75), score < DownScore is down
	// (default 0.35), between them degraded.
	HealthyScore float64
	DownScore    float64

	// Hysteresis is how many consecutive evaluations must agree on a new
	// state before the transition commits (default 2).
	Hysteresis int
	// MinDwell is the minimum seconds a state holds before the next
	// transition (default 2 bucket widths). A transition demanded before
	// the dwell expires is suppressed and counted as a damped flap.
	MinDwell float64

	// MaxSuccessAge is how many seconds without a success drive the
	// freshness factor (and with it the score) to zero (default Window).
	MaxSuccessAge float64

	// Clock supplies "now" in seconds for direct Observe calls and
	// snapshot aging. Nil means event time: the monitor's high-water
	// event timestamp, which keeps simulator-fed monitors deterministic.
	Clock func() float64

	// SLO, when set, receives every success/failure fold so availability
	// and latency objectives are tracked from the same stream.
	SLO *SLOTracker

	// OnTransition, when set, is called for every committed state change
	// with the path key and the transition. It runs after the monitor's
	// lock is released, so the callback may call back into the monitor
	// (State, Snapshot); slow callbacks still delay the folding caller.
	OnTransition func(path string, tr HealthTransition)
}

func (c HealthConfig) withDefaults() HealthConfig {
	if c.Window <= 0 {
		c.Window = 60
	}
	if c.Buckets <= 0 {
		c.Buckets = 12
	}
	if c.FastAlpha <= 0 {
		c.FastAlpha = 0.4
	}
	if c.SlowAlpha <= 0 {
		c.SlowAlpha = 0.05
	}
	if c.HealthyScore <= 0 {
		c.HealthyScore = 0.75
	}
	if c.DownScore <= 0 {
		c.DownScore = 0.35
	}
	if c.Hysteresis <= 0 {
		c.Hysteresis = 2
	}
	if c.MinDwell <= 0 {
		c.MinDwell = 2 * c.Window / float64(c.Buckets)
	}
	if c.MaxSuccessAge <= 0 {
		c.MaxSuccessAge = c.Window
	}
	return c
}

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
	everSample  bool

	state      HealthState
	stateSince float64
	pending    HealthState
	pendingN   int

	transitions     int64
	flapsSuppressed int64
	history         []HealthTransition

	score float64
}

// HealthMonitor folds transfer outcomes into per-path rolling windows
// and keeps a damped health state per path. It implements Observer (and
// is safe for concurrent use), so attaching it to a Client or a
// core.Config is one line; daemons without an event stream feed it
// directly through Observe.
type HealthMonitor struct {
	cfg HealthConfig

	mu      sync.Mutex
	paths   map[string]*pathHealth
	hiwater float64 // newest event time seen (event-time "now")

	// notices queues committed transitions for OnTransition while m.mu is
	// held; every path that calls evaluate drains it after unlocking.
	notices []healthNotice
}

// healthNotice is one queued OnTransition delivery.
type healthNotice struct {
	path string
	tr   HealthTransition
}

// takeNotices detaches the queued transition notices. Caller holds m.mu.
func (m *HealthMonitor) takeNotices() []healthNotice {
	n := m.notices
	m.notices = nil
	return n
}

// fireNotices delivers queued transitions. Caller must NOT hold m.mu:
// the callback is allowed to read the monitor.
func (m *HealthMonitor) fireNotices(notices []healthNotice) {
	for _, n := range notices {
		m.cfg.OnTransition(n.path, n.tr)
	}
}

// NewHealthMonitor returns a monitor with cfg's gaps filled by defaults.
func NewHealthMonitor(cfg HealthConfig) *HealthMonitor {
	return &HealthMonitor{cfg: cfg.withDefaults(), paths: make(map[string]*pathHealth)}
}

// Config returns the monitor's effective (default-filled) configuration.
func (m *HealthMonitor) Config() HealthConfig { return m.cfg }

// SLO returns the tracker receiving this monitor's folds, or nil.
func (m *HealthMonitor) SLO() *SLOTracker { return m.cfg.SLO }

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
		m.paths[key] = p
	}
	return p
}

// bucket returns the bucket covering time t, resetting a stale slot.
func (m *HealthMonitor) bucket(p *pathHealth, t float64) *healthBucket {
	if t < 0 {
		t = 0
	}
	num := int64(t / m.bucketWidth())
	b := &p.buckets[num%int64(len(p.buckets))]
	if b.num != num {
		b.reset(num)
	}
	return b
}

// fold is the single write path: it records one outcome sample at time t
// and re-evaluates the path's state.
func (m *HealthMonitor) fold(key string, t float64, class ErrClass, latency float64, bytes int64, retry bool) {
	m.mu.Lock()
	if t > m.hiwater {
		m.hiwater = t
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
	case class == ClassCanceled:
		// The caller abandoned the operation; that says nothing about the
		// path. Not a sample.
		m.mu.Unlock()
		return
	default:
		b.fail++
	}
	p.everSample = true
	m.evaluate(key, p, m.now())
	notices := m.takeNotices()
	slo := m.cfg.SLO
	m.mu.Unlock()
	// SLO fold and transition notices run unlocked: the SLO tracker has
	// its own mutex, and OnTransition may read back into this monitor.
	if slo != nil && !retry {
		slo.ObservePathAt(key, t, class == ClassOK, latency)
	}
	m.fireNotices(notices)
}

func (m *HealthMonitor) foldEWMA(p *pathHealth, mbps float64) {
	if !p.haveEWMA {
		p.fast, p.slow, p.haveEWMA = mbps, mbps, true
		return
	}
	p.fast += m.cfg.FastAlpha * (mbps - p.fast)
	p.slow += m.cfg.SlowAlpha * (mbps - p.slow)
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
	case score >= m.cfg.HealthyScore:
		return HealthHealthy
	case score < m.cfg.DownScore:
		return HealthDown
	}
	return HealthDegraded
}

// evaluate recomputes the path's score and applies the hysteresis state
// machine: a new target state must win Hysteresis consecutive
// evaluations, and no transition commits before MinDwell seconds in the
// current state — demanded-but-dwelling transitions count as suppressed
// flaps.
func (m *HealthMonitor) evaluate(key string, p *pathHealth, now float64) {
	if !p.everSample {
		// Only canceled operations so far: the path was never actually
		// measured, so it stays unknown rather than scoring an empty
		// window.
		return
	}
	p.score = m.scoreOf(p, m.window(p, now), now)
	want := m.target(p.score)
	if p.state == HealthUnknown {
		// First sample: adopt the observed state directly.
		p.state = want
		p.stateSince = now
		return
	}
	if want == p.state {
		p.pendingN = 0
		return
	}
	if want == p.pending {
		p.pendingN++
	} else {
		p.pending = want
		p.pendingN = 1
	}
	if p.pendingN < m.cfg.Hysteresis {
		return
	}
	if now-p.stateSince < m.cfg.MinDwell {
		p.flapsSuppressed++
		return
	}
	tr := HealthTransition{From: p.state, To: want, Time: now, Score: p.score}
	p.history = append(p.history, tr)
	if len(p.history) > healthHistoryCap {
		p.history = p.history[len(p.history)-healthHistoryCap:]
	}
	p.state = want
	p.stateSince = now
	p.transitions++
	p.pendingN = 0
	if m.cfg.OnTransition != nil {
		m.notices = append(m.notices, healthNotice{path: key, tr: tr})
	}
}

// --- Observer feeding -------------------------------------------------

// ProbeStarted is a no-op: launches are not outcomes.
func (m *HealthMonitor) ProbeStarted(ProbeStart) {}

// ProbeFinished folds a probe outcome into its path's window.
func (m *HealthMonitor) ProbeFinished(e ProbeEnd) {
	m.fold(e.Path.Label(), e.Time, e.Class, e.Duration, e.Bytes, false)
}

// ProbeCanceled is a no-op: a reaped loser says nothing about the path.
func (m *HealthMonitor) ProbeCanceled(ProbeCancel) {}

// PathSelected is a no-op: selection counts live in Metrics.
func (m *HealthMonitor) PathSelected(Selection) {}

// TransferStarted is a no-op: launches are not outcomes.
func (m *HealthMonitor) TransferStarted(TransferStart) {}

// TransferFinished folds a payload-transfer outcome.
func (m *HealthMonitor) TransferFinished(e TransferEnd) {
	m.fold(e.Path.Label(), e.Time, e.Class, e.Duration, e.Bytes, false)
}

// RetryScheduled folds a transport retry (a half-weight failure signal).
func (m *HealthMonitor) RetryScheduled(e Retry) {
	m.fold(e.Path.Label(), e.Time, ClassFailed, 0, 0, true)
}

// TransferAborted folds deadline deaths as failures; caller
// cancellations are ignored.
func (m *HealthMonitor) TransferAborted(e Abort) {
	if e.Class == ClassCanceled {
		return
	}
	m.fold(e.Path.Label(), e.Time, e.Class, 0, 0, false)
}

var _ Observer = (*HealthMonitor)(nil)

// --- Direct feeding (daemons without an event stream) ----------------

// Observe records one outcome on key at the monitor's clock: the relay
// feeds forward outcomes per origin, the origin serve outcomes per
// object. latency in seconds; bytes feed the throughput EWMA.
func (m *HealthMonitor) Observe(key string, class ErrClass, latency float64, bytes int64) {
	m.mu.Lock()
	t := m.now()
	m.mu.Unlock()
	m.fold(key, t, class, latency, bytes, false)
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

// Snapshot captures every path's current health, re-evaluating each
// state first so aging alone (a path gone quiet) is reflected without
// waiting for its next event.
func (m *HealthMonitor) Snapshot() HealthSnapshot {
	m.mu.Lock()
	now := m.now()
	s := HealthSnapshot{Time: now, Paths: make([]PathHealth, 0, len(m.paths))}
	for key, p := range m.paths {
		m.evaluate(key, p, now)
		w := m.window(p, now)
		ph := PathHealth{
			Path:            key,
			State:           p.state,
			Score:           p.score,
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
	notices := m.takeNotices()
	m.mu.Unlock()
	m.fireNotices(notices)
	sort.Slice(s.Paths, func(i, j int) bool { return s.Paths[i].Path < s.Paths[j].Path })
	return s
}

// PathHealth returns one path's current health view.
func (m *HealthMonitor) PathHealth(key string) (PathHealth, bool) {
	return m.Snapshot().Path(key)
}

// State returns a path's damped state (HealthUnknown if never seen).
func (m *HealthMonitor) State(key string) HealthState {
	m.mu.Lock()
	p := m.paths[key]
	if p == nil {
		m.mu.Unlock()
		return HealthUnknown
	}
	m.evaluate(key, p, m.now())
	state := p.state
	notices := m.takeNotices()
	m.mu.Unlock()
	m.fireNotices(notices)
	return state
}

// Score returns a path's current score (0 if never seen).
func (m *HealthMonitor) Score(key string) float64 {
	m.mu.Lock()
	p := m.paths[key]
	if p == nil {
		m.mu.Unlock()
		return 0
	}
	m.evaluate(key, p, m.now())
	score := p.score
	notices := m.takeNotices()
	m.mu.Unlock()
	m.fireNotices(notices)
	return score
}

// Healthiest returns up to k path keys ranked best-first: by state
// (healthy before degraded before down), then score, then name — the
// ordering registryd's health-ranked List applies to its relay set.
func (m *HealthMonitor) Healthiest(k int) []string {
	s := m.Snapshot()
	sort.SliceStable(s.Paths, func(i, j int) bool {
		a, b := s.Paths[i], s.Paths[j]
		if a.State != b.State {
			return a.State < b.State
		}
		if a.Score != b.Score {
			return a.Score > b.Score
		}
		return a.Path < b.Path
	})
	if k > len(s.Paths) {
		k = len(s.Paths)
	}
	out := make([]string, 0, k)
	for _, p := range s.Paths[:k] {
		out = append(out, p.Path)
	}
	return out
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
