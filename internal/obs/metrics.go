package obs

import (
	"encoding/json"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// Histogram geometry. Fixed buckets keep snapshots mergeable across
// clients and runs (stats.Histogram.Merge requires identical geometry);
// the explicit under/overflow counters mean nothing is silently dropped.
const (
	// Probe latencies land in [0s, 20s) at 0.1 s resolution — wide enough
	// for the simulator's Low-category clients probing 100 KB at dial-up
	// rates, fine enough for loopback TCP.
	probeLatencyLo, probeLatencyHi = 0.0, 20.0
	probeLatencyBins               = 200

	// Transfer throughputs land in [0, 100) Mb/s at 0.5 Mb/s resolution,
	// covering the paper's access-link range with room above it.
	transferMbpsLo, transferMbpsHi = 0.0, 100.0
	transferMbpsBins               = 200
)

// Metrics folds finished operations into atomic counters, per-path
// utilization tallies, and fixed-bucket histograms. A fold is a handful
// of atomic adds plus one short mutex hold per successful leg, small
// beside the transfer work of any operation (BenchmarkMetricsFoldParallel
// prices it under contention). The per-path map takes a read lock on the
// hot path (a write lock only the first time a path is seen). Snapshot
// may be called concurrently with Fold.
type Metrics struct {
	// Health, when set, folds every operation Metrics folds: the one link
	// through which a client's health monitor sees its operations. Set it
	// before the first Fold.
	Health *HealthMonitor

	probesStarted, probesFinished, probesFailed, probesCanceled atomic.Int64
	selections, selectionsIndirect                              atomic.Int64
	transfersStarted, transfersFinished, transfersFailed        atomic.Int64
	retries, aborts                                             atomic.Int64
	bytesDelivered, bytesStreamed                               atomic.Int64

	pathMu sync.RWMutex
	paths  map[string]*pathTally

	probeLatency *histogram // successful probe durations, seconds
	transferTput *histogram // successful transfer throughputs, Mb/s
}

// pathTally is one route's counters (keyed by PathID.Label()).
type pathTally struct {
	probed   atomic.Int64 // appeared in a race or refresh
	selected atomic.Int64 // won the commit
	canceled atomic.Int64 // reaped as a loser
	failed   atomic.Int64 // probe or transfer failed outright
	bytes    atomic.Int64 // payload bytes delivered over this route
}

// NewMetrics returns an empty collector.
func NewMetrics() *Metrics {
	return &Metrics{
		paths:        make(map[string]*pathTally),
		probeLatency: newHistogram(probeLatencyLo, probeLatencyHi, probeLatencyBins),
		transferTput: newHistogram(transferMbpsLo, transferMbpsHi, transferMbpsBins),
	}
}

func (m *Metrics) tally(label string) *pathTally {
	m.pathMu.RLock()
	t := m.paths[label]
	m.pathMu.RUnlock()
	if t != nil {
		return t
	}
	m.pathMu.Lock()
	defer m.pathMu.Unlock()
	if t = m.paths[label]; t == nil {
		t = &pathTally{}
		// A copy for the key, so a label read out of a caller's record
		// never makes that record escape (see Fold).
		m.paths[strings.Clone(label)] = t
	}
	return t
}

// Fold tallies one finished operation: its selection, then each leg.
// A probe counts toward its route's appearances (the denominator of the
// route's utilization, see Path) and a selection toward its wins.
// Successful legs feed the delivered-byte counts, overall and per route,
// and the latency (probes) or throughput (payload) histogram. A reaped
// loser counts as canceled, whatever class it then ended with, and a
// canceled probe is not a failure; a canceled payload transfer is.
// bytesStreamed counts every byte that arrived, delivered or not, so its
// gap to bytesDelivered measures wasted transfer work. With Health set,
// the monitor folds the same record. Neither fold keeps op or anything it
// points to, so a record built on the caller's stack stays there.
func (m *Metrics) Fold(op *Op) {
	if op.Selected {
		m.selections.Add(1)
		if op.Route != "direct" {
			m.selectionsIndirect.Add(1)
		}
		m.tally(op.Route).selected.Add(1)
	}
	for i := range op.Legs {
		l := &op.Legs[i]
		t := m.tally(l.Route)
		if l.Probe {
			m.probesStarted.Add(1)
			m.probesFinished.Add(1)
			t.probed.Add(1)
			if l.Reaped {
				m.probesCanceled.Add(1)
				t.canceled.Add(1)
			}
		} else {
			m.transfersStarted.Add(1)
			m.transfersFinished.Add(1)
		}
		switch {
		case l.Class == ClassOK:
			m.bytesDelivered.Add(l.Bytes)
			t.bytes.Add(l.Bytes)
			if d := l.End - l.Start; l.Probe {
				m.probeLatency.observe(d, TraceID{})
			} else if d > 0 {
				m.transferTput.observe(float64(l.Bytes)*8/d/1e6, TraceID{})
			}
		case l.Probe && l.Class == ClassCanceled:
			// A reap (counted above) or an abandoned race: no failure.
		case l.Probe:
			m.probesFailed.Add(1)
			t.failed.Add(1)
		default:
			m.transfersFailed.Add(1)
			t.failed.Add(1)
		}
		if l.Aborted {
			m.aborts.Add(1)
		}
		if n := len(l.Retries); n > 0 {
			m.retries.Add(int64(n))
		}
		if l.Streamed > 0 {
			m.bytesStreamed.Add(l.Streamed)
		}
	}
	if m.Health != nil {
		m.Health.Fold(op)
	}
}

// PathSnapshot is one route's aggregated counters. Utilization is
// Selected over Probed (see Metrics.Path).
type PathSnapshot struct {
	Probed      int64   `json:"probed"`
	Selected    int64   `json:"selected"`
	Canceled    int64   `json:"canceled"`
	Failed      int64   `json:"failed"`
	Bytes       int64   `json:"bytes"`
	Utilization float64 `json:"utilization"`
}

// HistogramSnapshot is a point-in-time copy of a fixed-bucket histogram,
// with p50/p90/p99 precomputed so /debug/vars readers get percentiles
// without reimplementing the bucket math.
type HistogramSnapshot struct {
	Lo        float64 `json:"lo"`
	Hi        float64 `json:"hi"`
	Bins      []int64 `json:"bins"`
	Underflow int64   `json:"underflow"`
	Overflow  int64   `json:"overflow"`
	Total     int64   `json:"total"`

	// Sum is the exact sum of observed values, kept as they are recorded.
	Sum float64 `json:"sum"`

	P50 float64 `json:"p50"`
	P90 float64 `json:"p90"`
	P99 float64 `json:"p99"`

	// Exemplars holds, per populated bin that saw a traced observation,
	// the most recent trace that landed there — sparse, ordered by bin.
	Exemplars []Exemplar `json:"exemplars,omitempty"`
}

// Quantile estimates the q-th quantile (0 ≤ q ≤ 1) by linear
// interpolation within the fixed-width bin holding the target rank.
// Underflow observations clamp to Lo and overflow to Hi — the histogram
// only knows they were out of range. An empty histogram reports 0.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Total <= 0 || len(s.Bins) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Total)
	cum := float64(s.Underflow)
	if rank <= cum {
		return s.Lo
	}
	width := (s.Hi - s.Lo) / float64(len(s.Bins))
	for i, n := range s.Bins {
		if n == 0 {
			continue
		}
		next := cum + float64(n)
		if rank <= next {
			frac := (rank - cum) / float64(n)
			return s.Lo + (float64(i)+frac)*width
		}
		cum = next
	}
	return s.Hi // rank fell into overflow
}

// ExemplarNear returns the exemplar whose bin contains the q-th
// quantile, or the nearest populated one at or below it — the "what
// trace explains my p99" lookup.
func (s HistogramSnapshot) ExemplarNear(q float64) (Exemplar, bool) {
	if len(s.Exemplars) == 0 || len(s.Bins) == 0 {
		return Exemplar{}, false
	}
	v := s.Quantile(q)
	width := (s.Hi - s.Lo) / float64(len(s.Bins))
	bin := int((v - s.Lo) / width)
	if bin >= len(s.Bins) {
		bin = len(s.Bins) - 1
	}
	best := -1
	for i, e := range s.Exemplars {
		if e.Bin <= bin {
			best = i
		}
	}
	if best < 0 {
		best = 0 // all exemplars above the quantile bin: take the lowest
	}
	return s.Exemplars[best], true
}

// Snapshot is a consistent-enough point-in-time view of a Metrics
// collector, ready for JSON serving (the daemons' /debug/vars endpoints)
// or test assertions. Each counter is read atomically on its own; each
// histogram is copied under its lock.
type Snapshot struct {
	ProbesStarted  int64 `json:"probes_started"`
	ProbesFinished int64 `json:"probes_finished"`
	ProbesFailed   int64 `json:"probes_failed"`
	ProbesCanceled int64 `json:"probes_canceled"`

	Selections         int64 `json:"selections"`
	SelectionsIndirect int64 `json:"selections_indirect"`

	TransfersStarted  int64 `json:"transfers_started"`
	TransfersFinished int64 `json:"transfers_finished"`
	TransfersFailed   int64 `json:"transfers_failed"`

	Retries int64 `json:"retries"`
	Aborts  int64 `json:"aborts"`

	BytesDelivered int64 `json:"bytes_delivered"`
	BytesStreamed  int64 `json:"bytes_streamed"`

	// Paths maps the route label ("direct" or the relay name) to its
	// tallies: the per-intermediate utilization table.
	Paths map[string]PathSnapshot `json:"paths"`

	ProbeLatencySeconds HistogramSnapshot `json:"probe_latency_seconds"`
	TransferMbps        HistogramSnapshot `json:"transfer_mbps"`
}

// LatencyRecorder is a self-initializing request-latency histogram for
// the daemons' /metrics endpoints: [0, 20) s at 0.1 s resolution,
// matching the client probe-latency geometry so the two views line up.
// An observation takes one short mutex hold; a request costs far more
// than that. The zero value is ready to use.
type LatencyRecorder struct {
	once sync.Once
	h    *histogram
}

func (l *LatencyRecorder) init() {
	l.once.Do(func() {
		l.h = newHistogram(probeLatencyLo, probeLatencyHi, probeLatencyBins)
	})
}

// Observe records one request duration.
func (l *LatencyRecorder) Observe(d time.Duration) { l.ObserveTrace(d, TraceID{}) }

// ObserveTrace records one request duration attributed to a trace: the
// observation's bucket remembers the trace as its exemplar, linking the
// latency distribution on /metrics to the stitchable cross-hop trace
// that produced it. A zero trace records no exemplar.
func (l *LatencyRecorder) ObserveTrace(d time.Duration, trace TraceID) {
	l.init()
	l.h.observe(d.Seconds(), trace)
}

// Snapshot copies the distribution, quantiles, exact sum, and exemplars
// included.
func (l *LatencyRecorder) Snapshot() HistogramSnapshot {
	l.init()
	return l.h.snapshot()
}

// Exemplar links one histogram bin to the most recent traced
// observation that landed in it: the trace ID is the handle that
// resolves — through StitchTrace over the span archives — to the
// cross-hop timeline explaining that bucket. Rendered on OpenMetrics
// scrapes as bucket exemplars.
type Exemplar struct {
	// Bin is the snapshot bin index the observation landed in.
	Bin int `json:"bin"`
	// Value is the observed value.
	Value float64 `json:"value"`
	// Trace identifies the operation that produced the observation.
	Trace TraceID `json:"trace"`
	// Time is when the observation was recorded, Unix nanoseconds.
	Time int64 `json:"time_unix_nano"`
}

// histogram is a fixed-bucket histogram with the exact running sum and,
// per bin, the most recent traced observation, all under one mutex.
type histogram struct {
	mu  sync.Mutex
	h   *stats.Histogram
	sum float64
	ex  []Exemplar // per-bin most recent, allocated on the first traced observation
}

func newHistogram(lo, hi float64, bins int) *histogram {
	return &histogram{h: stats.NewHistogram(lo, hi, bins)}
}

// observe records one observation, optionally carrying the trace that
// produced it (a zero trace records no exemplar). The exemplar's clock
// is read before the lock, so two observations may take the lock out of
// clock order; a slot keeps the later of the two.
func (s *histogram) observe(v float64, trace TraceID) {
	var now int64
	if !trace.IsZero() {
		now = time.Now().UnixNano()
	}
	s.mu.Lock()
	s.h.Add(v)
	s.sum += v
	if !trace.IsZero() {
		if bin := s.binOf(v); bin >= 0 {
			if s.ex == nil {
				s.ex = make([]Exemplar, len(s.h.Bins))
			}
			if e := &s.ex[bin]; e.Trace.IsZero() || e.Time <= now {
				*e = Exemplar{Bin: bin, Value: v, Trace: trace, Time: now}
			}
		}
	}
	s.mu.Unlock()
}

// binOf maps a value to its bin index, -1 for under/overflow (exemplars
// only attach to explicit buckets).
func (s *histogram) binOf(v float64) int {
	h := s.h
	if v < h.Lo || v >= h.Hi {
		return -1
	}
	i := int((v - h.Lo) / h.BinWidth())
	if i >= len(h.Bins) {
		i = len(h.Bins) - 1
	}
	return i
}

// snapshot copies the histogram, its sum and its exemplars under the
// lock and computes the quantiles from the copy.
func (s *histogram) snapshot() HistogramSnapshot {
	s.mu.Lock()
	snap := HistogramSnapshot{
		Lo: s.h.Lo, Hi: s.h.Hi,
		Bins:      append([]int64(nil), s.h.Bins...),
		Underflow: s.h.Underflow, Overflow: s.h.Overflow,
		Total: s.h.Total(),
		Sum:   s.sum,
	}
	for _, e := range s.ex {
		if !e.Trace.IsZero() {
			snap.Exemplars = append(snap.Exemplars, e)
		}
	}
	s.mu.Unlock()
	snap.P50 = snap.Quantile(0.50)
	snap.P90 = snap.Quantile(0.90)
	snap.P99 = snap.Quantile(0.99)
	return snap
}

// Snapshot captures the collector's current state.
func (m *Metrics) Snapshot() Snapshot {
	s := Snapshot{
		ProbesStarted:      m.probesStarted.Load(),
		ProbesFinished:     m.probesFinished.Load(),
		ProbesFailed:       m.probesFailed.Load(),
		ProbesCanceled:     m.probesCanceled.Load(),
		Selections:         m.selections.Load(),
		SelectionsIndirect: m.selectionsIndirect.Load(),
		TransfersStarted:   m.transfersStarted.Load(),
		TransfersFinished:  m.transfersFinished.Load(),
		TransfersFailed:    m.transfersFailed.Load(),
		Retries:            m.retries.Load(),
		Aborts:             m.aborts.Load(),
		BytesDelivered:     m.bytesDelivered.Load(),
		BytesStreamed:      m.bytesStreamed.Load(),
		Paths:              make(map[string]PathSnapshot),
	}
	m.pathMu.RLock()
	for label, t := range m.paths {
		s.Paths[label] = t.snapshot()
	}
	m.pathMu.RUnlock()
	s.ProbeLatencySeconds = m.probeLatency.snapshot()
	s.TransferMbps = m.transferTput.snapshot()
	return s
}

// Path returns one route's tally, keyed by PathID.Label ("direct" or the
// relay name). Its Utilization is the paper's utilization of an
// intermediate, "the ratio of the number of times it is selected for
// transfer divided by the number of times that it appears in the random
// set": Selected over Probed. This tally is the one place it is counted;
// the live client, Table III and the weighted random policy all read it.
// A read never creates an entry: an unknown label returns the zero
// snapshot.
func (m *Metrics) Path(label string) PathSnapshot {
	m.pathMu.RLock()
	defer m.pathMu.RUnlock()
	return m.paths[label].snapshot()
}

// snapshot reads the tally's counters; a nil tally reads as zero.
func (t *pathTally) snapshot() PathSnapshot {
	if t == nil {
		return PathSnapshot{}
	}
	ps := PathSnapshot{
		Probed:   t.probed.Load(),
		Selected: t.selected.Load(),
		Canceled: t.canceled.Load(),
		Failed:   t.failed.Load(),
		Bytes:    t.bytes.Load(),
	}
	if ps.Probed > 0 {
		ps.Utilization = float64(ps.Selected) / float64(ps.Probed)
	}
	return ps
}

// PathLabels returns the snapshot's route labels, sorted, direct first —
// a stable iteration order for reports.
func (s Snapshot) PathLabels() []string {
	labels := make([]string, 0, len(s.Paths))
	for l := range s.Paths {
		if l != "direct" {
			labels = append(labels, l)
		}
	}
	sort.Strings(labels)
	if _, ok := s.Paths["direct"]; ok {
		labels = append([]string{"direct"}, labels...)
	}
	return labels
}

// JSON renders the snapshot as indented JSON. The snapshot is built from
// plain fields and maps, so marshaling cannot fail.
func (s Snapshot) JSON() []byte {
	b, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		panic("obs: snapshot marshal: " + err.Error())
	}
	return b
}
