// Per-P striped metric cells: the scaling fix for hot-path counter
// contention. A single atomic.Int64 shared by every transfer goroutine
// ping-pongs its cache line between cores; here each update lands on one
// of GOMAXPROCS cache-line-padded stripes and a snapshot folds the
// stripes. TestStripedSpeedupUnderContention compares the two; no
// BENCHMARK.json workload runs on more than one P, so no benchmark
// metric prices the difference yet. Stripe affinity comes from a
// sync.Pool of stripe indices: the pool's per-P local caches hand the
// same index back to the same P in steady state, so cross-core sharing
// only happens when goroutines migrate — without reaching into runtime
// internals for a real P id. Boxing the indices is allocation-free
// (small-integer interface values are statically allocated), which is
// what keeps realnet's TestWarmFetchAllocCeiling intact.

package obs

import (
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/stats"
)

// maxStripes bounds the stripe count: indices must stay in the
// boxing-free small-int range, and past the point where every P has its
// own stripe more stripes only slow the snapshot fold.
const maxStripes = 128

// stripeCount picks how many stripes a striped structure gets: one per
// P, clamped.
func stripeCount() int {
	n := runtime.GOMAXPROCS(0)
	if n < 1 {
		n = 1
	}
	if n > maxStripes {
		n = maxStripes
	}
	return n
}

// stripePicker deals out stripe indices with per-P affinity. acquire
// returns an index whose stripe the calling goroutine should update;
// release returns it to the pool. The pool's New hands out round-robin
// indices, so even a fresh pool (or one the GC emptied) spreads load
// across all stripes.
type stripePicker struct {
	n    int
	next atomic.Uint32
	pool sync.Pool
}

func newStripePicker(n int) *stripePicker {
	p := &stripePicker{n: n}
	p.pool.New = func() any { return int(p.next.Add(1)-1) % p.n }
	return p
}

func (p *stripePicker) acquire() int  { return p.pool.Get().(int) }
func (p *stripePicker) release(i int) { p.pool.Put(i) }

// counterID indexes the cells of a counterStripe. The IDs cover every
// scalar counter Metrics tracks; per-path tallies stay in their own map
// (a path cardinality explosion should not multiply by the stripe
// count).
type counterID int

const (
	cProbesStarted counterID = iota
	cProbesFinished
	cProbesFailed
	cProbesCanceled
	cSelections
	cSelectionsIndirect
	cTransfersStarted
	cTransfersFinished
	cTransfersFailed
	cRetries
	cAborts
	cBytesDelivered
	cBytesStreamed
	numCounters
)

// counterStripe is one cache-line-padded block of counter cells. The
// leading and trailing pads keep adjacent stripes (and whatever the
// allocator places next to them) off this stripe's lines; stripes are
// separately heap-allocated so the slice of pointers, not the cells,
// sits contiguously.
type counterStripe struct {
	_ [64]byte
	c [numCounters]atomic.Int64
	_ [64]byte
}

// stripedCounters is the sharded replacement for a bank of single
// atomic.Int64 cells.
type stripedCounters struct {
	picker  *stripePicker
	stripes []*counterStripe
}

func newStripedCounters() *stripedCounters {
	n := stripeCount()
	s := &stripedCounters{picker: newStripePicker(n), stripes: make([]*counterStripe, n)}
	for i := range s.stripes {
		s.stripes[i] = &counterStripe{}
	}
	return s
}

// add bumps one counter on the caller's stripe.
func (s *stripedCounters) add(id counterID, delta int64) {
	i := s.picker.acquire()
	s.stripes[i].c[id].Add(delta)
	s.picker.release(i)
}

// load folds one counter across all stripes.
func (s *stripedCounters) load(id counterID) int64 {
	var total int64
	for _, st := range s.stripes {
		total += st.c[id].Load()
	}
	return total
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

// histStripe is one cache-line-padded histogram shard: a fixed-bucket
// histogram plus the exact running sum and the per-bin exemplar slots,
// all guarded by the stripe's own mutex. With one stripe per P the
// mutex is effectively uncontended — the point is not lock-freedom but
// keeping each P's updates on its own cache lines.
type histStripe struct {
	_   [64]byte
	mu  sync.Mutex
	h   *stats.Histogram
	sum float64
	ex  []Exemplar // per-bin most-recent, allocated on first traced observation
	_   [64]byte
}

// stripedHistogram shards a fixed-geometry histogram across per-P
// stripes. Identical geometry makes the snapshot fold exact
// (stats.Histogram.Merge), including the exact sum the Prometheus _sum
// sample now carries.
type stripedHistogram struct {
	lo, hi  float64
	bins    int
	picker  *stripePicker
	stripes []*histStripe
}

func newStripedHistogram(lo, hi float64, bins int) *stripedHistogram {
	n := stripeCount()
	s := &stripedHistogram{lo: lo, hi: hi, bins: bins,
		picker: newStripePicker(n), stripes: make([]*histStripe, n)}
	for i := range s.stripes {
		s.stripes[i] = &histStripe{h: stats.NewHistogram(lo, hi, bins)}
	}
	return s
}

// observe records one observation, optionally carrying the trace that
// produced it (a zero trace records no exemplar).
func (s *stripedHistogram) observe(v float64, trace TraceID) {
	i := s.picker.acquire()
	st := s.stripes[i]
	st.mu.Lock()
	st.h.Add(v)
	st.sum += v
	if !trace.IsZero() {
		if bin := s.binOf(v); bin >= 0 {
			if st.ex == nil {
				st.ex = make([]Exemplar, s.bins)
			}
			st.ex[bin] = Exemplar{Bin: bin, Value: v, Trace: trace, Time: time.Now().UnixNano()}
		}
	}
	st.mu.Unlock()
	s.picker.release(i)
}

// binOf maps a value to its bin index, -1 for under/overflow (exemplars
// only attach to explicit buckets).
func (s *stripedHistogram) binOf(v float64) int {
	if v < s.lo || v >= s.hi {
		return -1
	}
	i := int((v - s.lo) / ((s.hi - s.lo) / float64(s.bins)))
	if i >= s.bins {
		i = s.bins - 1
	}
	return i
}

// snapshot folds the stripes into one HistogramSnapshot: bins and sum
// merge exactly, and each bin's exemplar is the most recent across
// stripes.
func (s *stripedHistogram) snapshot() HistogramSnapshot {
	fold := stats.NewHistogram(s.lo, s.hi, s.bins)
	sum := 0.0
	var latest []Exemplar
	for _, st := range s.stripes {
		st.mu.Lock()
		fold.Merge(st.h)
		sum += st.sum
		for _, e := range st.ex {
			if e.Trace.IsZero() {
				continue
			}
			if latest == nil {
				latest = make([]Exemplar, s.bins)
			}
			if e.Time >= latest[e.Bin].Time || latest[e.Bin].Trace.IsZero() {
				latest[e.Bin] = e
			}
		}
		st.mu.Unlock()
	}
	snap := histSnapshot(fold)
	snap.Sum = sum // exact, replacing histSnapshot's bin-center estimate
	for _, e := range latest {
		if !e.Trace.IsZero() {
			snap.Exemplars = append(snap.Exemplars, e)
		}
	}
	return snap
}
