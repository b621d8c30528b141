package obs

import (
	"encoding/json"
	"sync"
	"testing"
)

func pid(via string) PathID { return PathID{Server: "origin", Object: "o.bin", Via: via} }

func TestPathIDLabel(t *testing.T) {
	if l := pid("").Label(); l != "direct" {
		t.Fatalf("direct label = %q", l)
	}
	if l := pid("campus").Label(); l != "campus" {
		t.Fatalf("relay label = %q", l)
	}
}

func TestErrClassStrings(t *testing.T) {
	want := map[ErrClass]string{
		ClassOK: "ok", ClassCanceled: "canceled", ClassTimeout: "timeout",
		ClassStatus: "status", ClassFailed: "failed", ErrClass(99): "unknown",
	}
	for c, s := range want {
		if c.String() != s {
			t.Fatalf("%d.String() = %q, want %q", c, c.String(), s)
		}
	}
}

// race is the record of one canonical selection race: three probes, the
// relay "fast" wins, the two losers are reaped and end with the canceled
// class, and the warm remainder completes.
func race() *Op {
	return &Op{Route: "fast", Selected: true, Legs: []Leg{
		{Route: "direct", Probe: true, Start: 0, End: 0.1, Bytes: 100_000, Class: ClassCanceled, Reaped: true, Aborted: true},
		{Route: "fast", Probe: true, Start: 0, End: 0.1, Bytes: 100_000, Class: ClassOK},
		{Route: "slow", Probe: true, Start: 0, End: 0.1, Bytes: 100_000, Class: ClassCanceled, Reaped: true, Aborted: true},
		{Route: "fast", Start: 0.1, End: 1.0, Bytes: 900_000, Class: ClassOK},
	}}
}

func TestMetricsCountsOneRace(t *testing.T) {
	m := NewMetrics()
	m.Fold(race())
	s := m.Snapshot()

	if s.ProbesStarted != 3 || s.ProbesFinished != 3 {
		t.Fatalf("probes started/finished = %d/%d, want 3/3", s.ProbesStarted, s.ProbesFinished)
	}
	if s.ProbesCanceled != 2 {
		t.Fatalf("probes canceled = %d, want 2", s.ProbesCanceled)
	}
	if s.ProbesFailed != 0 {
		t.Fatalf("probes failed = %d, want 0 (cancellations are not failures)", s.ProbesFailed)
	}
	if s.Selections != 1 || s.SelectionsIndirect != 1 {
		t.Fatalf("selections = %d (%d indirect), want 1 (1)", s.Selections, s.SelectionsIndirect)
	}
	if s.TransfersStarted != 1 || s.TransfersFinished != 1 || s.TransfersFailed != 0 {
		t.Fatalf("transfers = %d/%d/%d", s.TransfersStarted, s.TransfersFinished, s.TransfersFailed)
	}
	// Each reaped loser ended with its context's error: one abort apiece.
	if s.Aborts != 2 || s.Retries != 0 {
		t.Fatalf("aborts/retries = %d/%d, want 2/0", s.Aborts, s.Retries)
	}
	if s.BytesDelivered != 100_000+900_000 {
		t.Fatalf("bytes delivered = %d", s.BytesDelivered)
	}

	fast := s.Paths["fast"]
	if fast.Probed != 1 || fast.Selected != 1 || fast.Utilization != 1.0 {
		t.Fatalf("fast tally = %+v", fast)
	}
	// The winner's bytes are its probe's plus its remainder's, so the
	// routes' bytes add up to what was delivered.
	if fast.Bytes != 1_000_000 || fast.Bytes != s.BytesDelivered {
		t.Fatalf("fast bytes = %d, bytes delivered = %d, want both 1000000", fast.Bytes, s.BytesDelivered)
	}
	// Path reads the same tally, and reading an unknown route creates
	// no entry.
	if got := m.Path("fast"); got != fast {
		t.Fatalf("Path(fast) = %+v, snapshot has %+v", got, fast)
	}
	if got := m.Path("nowhere"); got != (PathSnapshot{}) {
		t.Fatalf("Path(nowhere) = %+v, want the zero snapshot", got)
	}
	if n := len(m.Snapshot().Paths); n != 3 {
		t.Fatalf("snapshot has %d paths after reading an unknown one, want 3", n)
	}
	direct := s.Paths["direct"]
	if direct.Probed != 1 || direct.Selected != 0 || direct.Canceled != 1 || direct.Utilization != 0 {
		t.Fatalf("direct tally = %+v", direct)
	}
	if s.Paths["slow"].Canceled != 1 {
		t.Fatalf("slow tally = %+v", s.Paths["slow"])
	}

	// The successful probe landed in the latency histogram, the
	// remainder's 8 Mb/s in the throughput histogram.
	if s.ProbeLatencySeconds.Total != 1 {
		t.Fatalf("latency histogram total = %d", s.ProbeLatencySeconds.Total)
	}
	if s.TransferMbps.Total != 1 {
		t.Fatalf("throughput histogram total = %d", s.TransferMbps.Total)
	}
}

func TestMetricsFailureClasses(t *testing.T) {
	m := NewMetrics()
	m.Fold(&Op{Legs: []Leg{
		{Route: "dead", Probe: true, Class: ClassFailed},
		{Route: "dead", Class: ClassTimeout, Aborted: true, Retries: []float64{0.05}},
	}})

	s := m.Snapshot()
	if s.ProbesFailed != 1 || s.TransfersFailed != 1 || s.Retries != 1 || s.Aborts != 1 {
		t.Fatalf("failure counters = %+v", s)
	}
	if s.Paths["dead"].Failed != 2 {
		t.Fatalf("dead tally failed = %d, want 2", s.Paths["dead"].Failed)
	}
	if s.BytesDelivered != 0 || s.Selections != 0 {
		t.Fatalf("bytes delivered = %d, selections = %d, want 0 and 0", s.BytesDelivered, s.Selections)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := NewMetrics()
	m.Fold(race())
	var back Snapshot
	if err := json.Unmarshal(m.Snapshot().JSON(), &back); err != nil {
		t.Fatalf("snapshot JSON does not parse: %v", err)
	}
	if back.Selections != 1 || back.Paths["fast"].Selected != 1 {
		t.Fatalf("round-tripped snapshot = %+v", back)
	}
}

func TestSnapshotPathLabelsOrder(t *testing.T) {
	m := NewMetrics()
	m.Fold(race())
	labels := m.Snapshot().PathLabels()
	if len(labels) != 3 || labels[0] != "direct" || labels[1] != "fast" || labels[2] != "slow" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestMetricsStreamCounters(t *testing.T) {
	m := NewMetrics()
	// A transfer that streamed 64 KiB, was retried cold, streamed 74 KB
	// more and ultimately failed: bytesStreamed counts all of it,
	// bytesDelivered none.
	m.Fold(&Op{Legs: []Leg{{Route: "fast", Bytes: 1 << 20, Class: ClassFailed,
		Streamed: 64<<10 + 64<<10 + 10_000, Retries: []float64{0.2}}}})

	s := m.Snapshot()
	if want := int64(64<<10 + 64<<10 + 10_000); s.BytesStreamed != want {
		t.Fatalf("bytes streamed = %d, want %d", s.BytesStreamed, want)
	}
	if s.BytesDelivered != 0 {
		t.Fatalf("bytes delivered = %d, want 0 for a failed transfer", s.BytesDelivered)
	}
}

// TestFoldLeavesRecordOnStack: a record the caller built on its stack —
// legs included — stays there, with a health monitor linked too.
func TestFoldLeavesRecordOnStack(t *testing.T) {
	m := NewMetrics()
	m.Health = NewHealthMonitor(HealthConfig{Clock: func() float64 { return 1 }})
	route := string([]byte("fast")) // not a constant: a key the folds must copy
	fold := func() {
		var buf [4]Leg
		op := Op{Route: route, Selected: true, Legs: buf[:0]}
		op.Legs = append(op.Legs,
			Leg{Route: route, Probe: true, End: 0.1, Bytes: 100_000, Class: ClassOK},
			Leg{Route: route, Start: 0.1, End: 1, Bytes: 900_000, Class: ClassOK})
		m.Fold(&op)
	}
	fold() // the first fold creates the route's entries
	if n := testing.AllocsPerRun(100, fold); n != 0 {
		t.Fatalf("Fold: %v allocs per record, want 0", n)
	}
}

// TestMetricsConcurrentSnapshots is the race-detector pass: many
// goroutines folding while others snapshot continuously.
func TestMetricsConcurrentSnapshots(t *testing.T) {
	m := NewMetrics()
	const workers, rounds = 8, 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				m.Fold(race())
			}
		}(w)
	}
	snapDone := make(chan struct{})
	go func() {
		defer close(snapDone)
		for i := 0; i < 500; i++ {
			_ = m.Snapshot()
		}
	}()
	wg.Wait()
	<-snapDone

	s := m.Snapshot()
	if want := int64(workers * rounds); s.Selections != want {
		t.Fatalf("selections = %d, want %d", s.Selections, want)
	}
	if want := int64(workers * rounds * 3); s.ProbesStarted != want || s.ProbesFinished != want {
		t.Fatalf("probes = %d/%d, want %d", s.ProbesStarted, s.ProbesFinished, want)
	}
	if want := int64(workers * rounds * 1_000_000); s.BytesDelivered != want {
		t.Fatalf("bytes = %d, want %d", s.BytesDelivered, want)
	}
}
