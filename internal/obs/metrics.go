package obs

import (
	"encoding/json"
	"sort"
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

// Metrics aggregates events into per-P striped counters, per-path
// utilization tallies, and fixed-bucket histograms. Counter and
// histogram updates land on cache-line-padded stripes (one per P, see
// stripe.go) so concurrent transfer goroutines stop ping-ponging shared
// cache lines; Snapshot folds the stripes. The per-path map takes a
// read lock on the hot path (a write lock only the first time a path is
// seen). Snapshot may be called concurrently with observation.
type Metrics struct {
	counters *stripedCounters

	pathMu sync.RWMutex
	paths  map[string]*pathTally

	probeLatency *stripedHistogram // successful probe durations, seconds
	transferTput *stripedHistogram // successful transfer throughputs, Mb/s
}

// pathTally is one route's counters (keyed by PathID.Label()). The
// tallies stay single-cell atomics: path cardinality times stripe count
// would multiply memory for counters that are per-route, not
// per-chunk-hot.
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
		counters:     newStripedCounters(),
		paths:        make(map[string]*pathTally),
		probeLatency: newStripedHistogram(probeLatencyLo, probeLatencyHi, probeLatencyBins),
		transferTput: newStripedHistogram(transferMbpsLo, transferMbpsHi, transferMbpsBins),
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
		m.paths[label] = t
	}
	return t
}

// ProbeStarted counts the probe toward its route's appearance tally — the
// denominator of the paper's Section V utilization ratio.
func (m *Metrics) ProbeStarted(e ProbeStart) {
	m.counters.add(cProbesStarted, 1)
	m.tally(e.Path.Label()).probed.Add(1)
}

// ProbeFinished records the outcome: successful probes feed the latency
// histogram and the delivered-byte count; failures (other than engine
// cancellations, which ProbeCanceled already counted) feed the failure
// tallies.
func (m *Metrics) ProbeFinished(e ProbeEnd) {
	m.counters.add(cProbesFinished, 1)
	switch e.Class {
	case ClassOK:
		m.counters.add(cBytesDelivered, e.Bytes)
		m.probeLatency.observe(e.Duration, TraceID{})
	case ClassCanceled:
		// The reap decision was counted by ProbeCanceled; nothing more.
	default:
		m.counters.add(cProbesFailed, 1)
		m.tally(e.Path.Label()).failed.Add(1)
	}
}

// ProbeCanceled counts a loser reaped by the engine.
func (m *Metrics) ProbeCanceled(e ProbeCancel) {
	m.counters.add(cProbesCanceled, 1)
	m.tally(e.Path.Label()).canceled.Add(1)
}

// PathSelected counts the commit — the numerator of the utilization
// ratio for the winning route.
func (m *Metrics) PathSelected(e Selection) {
	m.counters.add(cSelections, 1)
	if e.Indirect {
		m.counters.add(cSelectionsIndirect, 1)
	}
	m.tally(e.Path.Label()).selected.Add(1)
}

// TransferStarted counts a payload transfer being issued.
func (m *Metrics) TransferStarted(e TransferStart) {
	m.counters.add(cTransfersStarted, 1)
}

// TransferFinished records the payload outcome; successes feed the
// throughput histogram.
func (m *Metrics) TransferFinished(e TransferEnd) {
	m.counters.add(cTransfersFinished, 1)
	if e.Class != ClassOK {
		m.counters.add(cTransfersFailed, 1)
		m.tally(e.Path.Label()).failed.Add(1)
		return
	}
	m.counters.add(cBytesDelivered, e.Bytes)
	m.tally(e.Path.Label()).bytes.Add(e.Bytes)
	if e.Duration > 0 {
		m.transferTput.observe(float64(e.Bytes)*8/e.Duration/1e6, TraceID{})
	}
}

// RetryScheduled counts a transport-level retry.
func (m *Metrics) RetryScheduled(e Retry) { m.counters.add(cRetries, 1) }

// TransferAborted counts a transport-level teardown by context death.
func (m *Metrics) TransferAborted(e Abort) { m.counters.add(cAborts, 1) }

// TransferProgress accumulates in-flight bytes. Unlike bytesDelivered
// (credited only on success), bytesStreamed counts every byte that
// arrived, so the gap between the two measures wasted transfer work.
// This is the hottest callback — once per received chunk — and the one
// the striped cells exist for.
func (m *Metrics) TransferProgress(e Progress) { m.counters.add(cBytesStreamed, e.Chunk) }

var (
	_ Observer         = (*Metrics)(nil)
	_ ProgressObserver = (*Metrics)(nil)
)

// PathSnapshot is one route's aggregated counters. Utilization is the
// paper's Section V metric: times selected over times offered (raced).
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

	// Sum is the sum of observed values: exact for the striped
	// histograms (Metrics, LatencyRecorder), a bin-center estimate for
	// snapshots taken from plain stats histograms, which carry no sum.
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
// or test assertions. Counters are folded across their stripes;
// histograms are merged stripe by stripe under the stripe locks.
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
	// tallies, the per-relay utilization table of the paper's Section V.
	Paths map[string]PathSnapshot `json:"paths"`

	ProbeLatencySeconds HistogramSnapshot `json:"probe_latency_seconds"`
	TransferMbps        HistogramSnapshot `json:"transfer_mbps"`
}

func histSnapshot(h *stats.Histogram) HistogramSnapshot {
	s := HistogramSnapshot{
		Lo: h.Lo, Hi: h.Hi,
		Bins:      make([]int64, len(h.Bins)),
		Underflow: h.Underflow, Overflow: h.Overflow,
		Total: h.Total(),
	}
	copy(s.Bins, h.Bins)
	// Plain stats histograms carry no running sum; estimate one from bin
	// centers (under/overflow valued at the edges) so every snapshot has
	// a usable Sum. The striped histograms overwrite this with the exact
	// value.
	width := 0.0
	if len(h.Bins) > 0 {
		width = (h.Hi - h.Lo) / float64(len(h.Bins))
	}
	sum := float64(h.Underflow)*h.Lo + float64(h.Overflow)*h.Hi
	for i, n := range h.Bins {
		sum += float64(n) * (h.Lo + (float64(i)+0.5)*width)
	}
	s.Sum = sum
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// LatencyRecorder is a self-initializing request-latency histogram for
// the daemons' /metrics endpoints: [0, 20) s at 0.1 s resolution,
// matching the client probe-latency geometry so the two views line up.
// Observations land on per-P striped cells (see stripe.go), so many
// handler goroutines recording concurrently no longer serialize on one
// mutex or share cache lines. The zero value is ready to use.
type LatencyRecorder struct {
	once sync.Once
	h    *stripedHistogram
}

func (l *LatencyRecorder) init() {
	l.once.Do(func() {
		l.h = newStripedHistogram(probeLatencyLo, probeLatencyHi, probeLatencyBins)
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

// Snapshot captures the collector's current state.
func (m *Metrics) Snapshot() Snapshot {
	c := m.counters
	s := Snapshot{
		ProbesStarted:      c.load(cProbesStarted),
		ProbesFinished:     c.load(cProbesFinished),
		ProbesFailed:       c.load(cProbesFailed),
		ProbesCanceled:     c.load(cProbesCanceled),
		Selections:         c.load(cSelections),
		SelectionsIndirect: c.load(cSelectionsIndirect),
		TransfersStarted:   c.load(cTransfersStarted),
		TransfersFinished:  c.load(cTransfersFinished),
		TransfersFailed:    c.load(cTransfersFailed),
		Retries:            c.load(cRetries),
		Aborts:             c.load(cAborts),
		BytesDelivered:     c.load(cBytesDelivered),
		BytesStreamed:      c.load(cBytesStreamed),
		Paths:              make(map[string]PathSnapshot),
	}
	m.pathMu.RLock()
	for label, t := range m.paths {
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
		s.Paths[label] = ps
	}
	m.pathMu.RUnlock()
	s.ProbeLatencySeconds = m.probeLatency.snapshot()
	s.TransferMbps = m.transferTput.snapshot()
	return s
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
