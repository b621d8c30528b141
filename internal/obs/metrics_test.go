package obs

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

func TestMetricsCountersConcurrentExact(t *testing.T) {
	m := NewMetrics()
	const goroutines, perG = 8, 5000
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			retries := []float64{0.1, 0.2}
			for i := 0; i < perG; i++ {
				m.Fold(&Op{Legs: []Leg{{Route: "direct", Class: ClassCanceled, Streamed: 1, Retries: retries}}})
			}
		}()
	}
	wg.Wait()
	s := m.Snapshot()
	if s.BytesStreamed != goroutines*perG {
		t.Fatalf("BytesStreamed %d, want %d", s.BytesStreamed, goroutines*perG)
	}
	if s.Retries != 2*goroutines*perG {
		t.Fatalf("Retries %d, want %d", s.Retries, 2*goroutines*perG)
	}
	if s.Aborts != 0 {
		t.Fatalf("untouched counter Aborts %d, want 0", s.Aborts)
	}
}

func TestHistogramConcurrentExactTotalsAndSum(t *testing.T) {
	h := newHistogram(0, 10, 100)
	// Quarter-integer values are exact in binary floating point, so the
	// running sum must match the arithmetic sum exactly, whatever order
	// the goroutines' observations took the lock in.
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

func TestHistogramExemplarLatestWins(t *testing.T) {
	// The exemplar clock is read before the lock, so an observation can
	// reach its slot after a later-clocked one: the slot must keep the
	// later exemplar. The snapshot lists populated slots only, by bin.
	h := newHistogram(0, 1, 10)
	newer, stale, lone := NewTraceID(), NewTraceID(), NewTraceID()
	h.ex = make([]Exemplar, 10)
	h.ex[3] = Exemplar{Bin: 3, Value: 0.39, Trace: newer, Time: time.Now().Add(time.Hour).UnixNano()}
	h.observe(0.31, stale)
	h.observe(0.75, lone)
	snap := h.snapshot()
	if len(snap.Exemplars) != 2 {
		t.Fatalf("exemplars %v, want exactly bins 3 and 7", snap.Exemplars)
	}
	for _, e := range snap.Exemplars {
		switch e.Bin {
		case 3:
			if e.Trace != newer {
				t.Fatalf("bin 3 exemplar trace %s, want the later-clocked %s", e.Trace, newer)
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

func TestHistogramExemplarOverwriteSameBin(t *testing.T) {
	h := newHistogram(0, 1, 10)
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

func TestHistogramBinOf(t *testing.T) {
	h := newHistogram(0, 1, 10)
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

func TestHistogramZeroTraceRecordsNoExemplar(t *testing.T) {
	h := newHistogram(0, 1, 10)
	h.observe(0.5, TraceID{})
	snap := h.snapshot()
	if len(snap.Exemplars) != 0 {
		t.Fatalf("zero-trace observation produced exemplars: %v", snap.Exemplars)
	}
	if snap.Total != 1 {
		t.Fatalf("total %d, want 1", snap.Total)
	}
}

func TestMetricsCountersFoldInSnapshot(t *testing.T) {
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

// BenchmarkMetricsFoldParallel prices one client operation's fold — a
// reaped direct probe, the winning relay probe and the remainder, with
// a health monitor linked — from many goroutines at once. Under -cpu 2
// SetParallelism(4) runs 8 goroutines on two Ps; -cpu 1 is the repo
// benchmark's own setting.
func BenchmarkMetricsFoldParallel(b *testing.B) {
	m := NewMetrics()
	m.Health = NewHealthMonitor(HealthConfig{Clock: func() float64 { return 1 }})
	b.SetParallelism(4)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		var buf [3]Leg
		for pb.Next() {
			op := Op{Route: "r1", Selected: true, Legs: buf[:0]}
			op.Legs = append(op.Legs,
				Leg{Route: "direct", Probe: true, End: 0.03, Bytes: 64 << 10, Class: ClassCanceled, Reaped: true, Streamed: 16 << 10},
				Leg{Route: "r1", Probe: true, End: 0.02, Bytes: 64 << 10, Class: ClassOK, Streamed: 64 << 10},
				Leg{Route: "r1", Start: 0.02, End: 0.1, Bytes: 64 << 10, Class: ClassOK, Streamed: 64 << 10})
			m.Fold(&op)
		}
	})
}

// BenchmarkLatencyRecorderParallel prices one traced request-latency
// observation, as a relay or origin handler records it, from many
// goroutines at once (8 on two Ps under -cpu 2).
func BenchmarkLatencyRecorderParallel(b *testing.B) {
	var rec LatencyRecorder
	trace := NewTraceID()
	b.SetParallelism(4)
	b.ReportAllocs()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			rec.ObserveTrace(50*time.Millisecond, trace)
		}
	})
}
