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

// Metrics folds finished operations into per-P striped counters,
// per-path utilization tallies, and fixed-bucket histograms. Counter and
// histogram updates land on cache-line-padded stripes (one per P, see
// stripe.go) so concurrent transfer goroutines stop ping-ponging shared
// cache lines; Snapshot folds the stripes. The per-path map takes a
// read lock on the hot path (a write lock only the first time a path is
// seen). Snapshot may be called concurrently with Fold.
type Metrics struct {
	// Health, when set, folds every operation Metrics folds: the one link
	// through which a client's health monitor sees its operations. Set it
	// before the first Fold.
	Health *HealthMonitor

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
	c := m.counters
	if op.Selected {
		c.add(cSelections, 1)
		if op.Route != "direct" {
			c.add(cSelectionsIndirect, 1)
		}
		m.tally(op.Route).selected.Add(1)
	}
	for i := range op.Legs {
		l := &op.Legs[i]
		t := m.tally(l.Route)
		if l.Probe {
			c.add(cProbesStarted, 1)
			c.add(cProbesFinished, 1)
			t.probed.Add(1)
			if l.Reaped {
				c.add(cProbesCanceled, 1)
				t.canceled.Add(1)
			}
		} else {
			c.add(cTransfersStarted, 1)
			c.add(cTransfersFinished, 1)
		}
		switch {
		case l.Class == ClassOK:
			c.add(cBytesDelivered, l.Bytes)
			t.bytes.Add(l.Bytes)
			if d := l.End - l.Start; l.Probe {
				m.probeLatency.observe(d, TraceID{})
			} else if d > 0 {
				m.transferTput.observe(float64(l.Bytes)*8/d/1e6, TraceID{})
			}
		case l.Probe && l.Class == ClassCanceled:
			// A reap (counted above) or an abandoned race: no failure.
		case l.Probe:
			c.add(cProbesFailed, 1)
			t.failed.Add(1)
		default:
			c.add(cTransfersFailed, 1)
			t.failed.Add(1)
		}
		if l.Aborted {
			c.add(cAborts, 1)
		}
		if n := len(l.Retries); n > 0 {
			c.add(cRetries, int64(n))
		}
		if l.Streamed > 0 {
			c.add(cBytesStreamed, l.Streamed)
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
	// tallies: the per-intermediate utilization table.
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
