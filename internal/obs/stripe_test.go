package obs

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/stats"
)

func TestStripedCountersConcurrentExact(t *testing.T) {
	s := newStripedCounters()
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				s.add(cBytesStreamed, 1)
				s.add(cRetries, 2)
			}
		}()
	}
	wg.Wait()
	if got := s.load(cBytesStreamed); got != goroutines*perG {
		t.Fatalf("bytesStreamed folded to %d, want %d", got, goroutines*perG)
	}
	if got := s.load(cRetries); got != 2*goroutines*perG {
		t.Fatalf("retries folded to %d, want %d", got, 2*goroutines*perG)
	}
	if got := s.load(cAborts); got != 0 {
		t.Fatalf("untouched counter folded to %d, want 0", got)
	}
}

func TestStripedHistogramConcurrentExactTotalsAndSum(t *testing.T) {
	h := newStripedHistogram(0, 10, 100)
	// Quarter-integer values are exact in binary floating point, so the
	// folded sum must match the arithmetic sum exactly, regardless of
	// which stripe each observation landed on.
	const goroutines, perG = 8, 2000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				h.observe(float64(i%16)*0.25, TraceID{})
			}
		}(g)
	}
	wg.Wait()
	snap := h.snapshot()
	if snap.Total != goroutines*perG {
		t.Fatalf("total %d, want %d", snap.Total, goroutines*perG)
	}
	perGoroutineSum := 0.0
	for i := 0; i < perG; i++ {
		perGoroutineSum += float64(i%16) * 0.25
	}
	if want := perGoroutineSum * goroutines; snap.Sum != want {
		t.Fatalf("sum %v, want exactly %v", snap.Sum, want)
	}
}

func TestStripedHistogramExemplarLatestWinsAcrossStripes(t *testing.T) {
	// Hand-built two-stripe histogram: stripe merging must pick the
	// freshest exemplar per bin and skip zero-trace slots, independent of
	// GOMAXPROCS on the test machine.
	h := &stripedHistogram{lo: 0, hi: 1, bins: 10, picker: newStripePicker(2),
		stripes: []*histStripe{
			{h: stats.NewHistogram(0, 1, 10)},
			{h: stats.NewHistogram(0, 1, 10)},
		}}
	older, newer, lone := NewTraceID(), NewTraceID(), NewTraceID()
	h.stripes[0].ex = make([]Exemplar, 10)
	h.stripes[1].ex = make([]Exemplar, 10)
	h.stripes[0].ex[3] = Exemplar{Bin: 3, Value: 0.31, Trace: older, Time: 100}
	h.stripes[1].ex[3] = Exemplar{Bin: 3, Value: 0.39, Trace: newer, Time: 200}
	h.stripes[1].ex[7] = Exemplar{Bin: 7, Value: 0.75, Trace: lone, Time: 50}
	snap := h.snapshot()
	if len(snap.Exemplars) != 2 {
		t.Fatalf("exemplars %v, want exactly bins 3 and 7", snap.Exemplars)
	}
	for _, e := range snap.Exemplars {
		switch e.Bin {
		case 3:
			if e.Trace != newer {
				t.Fatalf("bin 3 exemplar trace %s, want the fresher %s", e.Trace, newer)
			}
		case 7:
			if e.Trace != lone {
				t.Fatalf("bin 7 exemplar trace %s, want %s", e.Trace, lone)
			}
		default:
			t.Fatalf("unexpected exemplar bin %d", e.Bin)
		}
	}
}

func TestStripedHistogramExemplarOverwriteSameBin(t *testing.T) {
	h := newStripedHistogram(0, 1, 10)
	first, second := NewTraceID(), NewTraceID()
	h.observe(0.35, first)
	time.Sleep(time.Millisecond) // UnixNano strictly advances
	h.observe(0.32, second)
	snap := h.snapshot()
	if len(snap.Exemplars) != 1 || snap.Exemplars[0].Trace != second {
		t.Fatalf("exemplars %v, want one entry tracing %s", snap.Exemplars, second)
	}
	if snap.Exemplars[0].Value != 0.32 {
		t.Fatalf("exemplar value %v, want the overwriting 0.32", snap.Exemplars[0].Value)
	}
}

func TestStripedHistogramBinOf(t *testing.T) {
	h := newStripedHistogram(0, 1, 10)
	cases := []struct {
		v    float64
		want int
	}{
		{-0.01, -1}, // underflow: no exemplar slot
		{0, 0},
		{0.05, 0},
		{0.1, 1},
		{0.95, 9},
		{0.999999, 9},
		{1.0, -1}, // hi is exclusive
		{2.5, -1},
	}
	for _, c := range cases {
		if got := h.binOf(c.v); got != c.want {
			t.Fatalf("binOf(%v) = %d, want %d", c.v, got, c.want)
		}
	}
}

func TestStripedHistogramZeroTraceRecordsNoExemplar(t *testing.T) {
	h := newStripedHistogram(0, 1, 10)
	h.observe(0.5, TraceID{})
	snap := h.snapshot()
	if len(snap.Exemplars) != 0 {
		t.Fatalf("zero-trace observation produced exemplars: %v", snap.Exemplars)
	}
	if snap.Total != 1 {
		t.Fatalf("total %d, want 1", snap.Total)
	}
}

func TestStripePickerSpreadsAndRecycles(t *testing.T) {
	p := newStripePicker(4)
	seen := make(map[int]bool)
	var held []int
	for i := 0; i < 4; i++ {
		idx := p.acquire()
		if idx < 0 || idx >= 4 {
			t.Fatalf("stripe index %d out of range", idx)
		}
		seen[idx] = true
		held = append(held, idx)
	}
	// Four acquires with nothing released draw from the pool's New
	// round-robin, covering all stripes.
	if len(seen) != 4 {
		t.Fatalf("fresh picker handed out %d distinct stripes, want 4", len(seen))
	}
	for _, idx := range held {
		p.release(idx)
	}
	if idx := p.acquire(); idx < 0 || idx >= 4 {
		t.Fatalf("recycled stripe index %d out of range", idx)
	}
}

// TestStripedSpeedupUnderContention asserts the striped counters beat a
// single shared cell by >=4x under parallel load. Cache-line
// ping-ponging needs real cores to show up, so the test only runs at
// GOMAXPROCS >= 4.
func TestStripedSpeedupUnderContention(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 4 {
		t.Skipf("GOMAXPROCS %d < 4: contention does not manifest", runtime.GOMAXPROCS(0))
	}
	if testing.Short() {
		t.Skip("measured benchmark")
	}
	striped := testing.Benchmark(func(b *testing.B) {
		s := newStripedCounters()
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				s.add(cBytesStreamed, 1)
			}
		})
	})
	single := testing.Benchmark(func(b *testing.B) {
		var c atomic.Int64
		b.RunParallel(func(pb *testing.PB) {
			for pb.Next() {
				c.Add(1)
			}
		})
	})
	ratio := float64(single.NsPerOp()) / float64(striped.NsPerOp())
	t.Logf("striped %d ns/op, single %d ns/op, speedup %.1fx",
		striped.NsPerOp(), single.NsPerOp(), ratio)
	if ratio < 4 {
		t.Fatalf("striped counters only %.1fx faster than a single cell under contention, want >= 4x", ratio)
	}
}

func TestStripeCountClamped(t *testing.T) {
	n := stripeCount()
	if n < 1 || n > maxStripes {
		t.Fatalf("stripeCount %d outside [1, %d]", n, maxStripes)
	}
	if want := runtime.GOMAXPROCS(0); want <= maxStripes && n != want {
		t.Fatalf("stripeCount %d, want GOMAXPROCS %d", n, want)
	}
}

func TestMetricsStripedCountersFoldInSnapshot(t *testing.T) {
	m := NewMetrics()
	const n = 1000
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				m.Fold(&Op{Legs: []Leg{{Route: "direct", Streamed: 3}}})
			}
		}()
	}
	wg.Wait()
	if got := m.Snapshot().BytesStreamed; got != 4*3*n {
		t.Fatalf("BytesStreamed %d, want %d", got, 4*3*n)
	}
}

func TestExemplarNear(t *testing.T) {
	var rec LatencyRecorder
	slowTrace := NewTraceID()
	for i := 0; i < 99; i++ {
		rec.Observe(50 * time.Millisecond)
	}
	rec.ObserveTrace(10*time.Second, slowTrace)
	snap := rec.Snapshot()
	e, ok := snap.ExemplarNear(0.999)
	if !ok || e.Trace != slowTrace {
		t.Fatalf("ExemplarNear(0.999) = %+v ok=%v, want the slow outlier trace %s", e, ok, slowTrace)
	}
}

func ExampleHistogramSnapshot_ExemplarNear() {
	var rec LatencyRecorder
	rec.Observe(10 * time.Millisecond)
	snap := rec.Snapshot()
	_, ok := snap.ExemplarNear(0.99)
	fmt.Println(ok)
	// Output: false
}
