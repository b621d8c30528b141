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
	if !pid("").Direct() || pid("campus").Direct() {
		t.Fatal("Direct() misclassifies")
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

// playRace drives one canonical selection race into an observer: three
// probes start, the relay "fast" wins, two losers are canceled and then
// finish with the canceled class, and the warm remainder completes.
func playRace(o Observer) {
	for _, via := range []string{"", "fast", "slow"} {
		o.ProbeStarted(ProbeStart{Path: pid(via), Time: 0, Bytes: 100_000})
	}
	o.PathSelected(Selection{Path: pid("fast"), Time: 0.1, Rule: "first-finished",
		Candidates: 3, Indirect: true, ProbeDuration: 0.1})
	o.ProbeCanceled(ProbeCancel{Path: pid(""), Time: 0.1})
	o.ProbeCanceled(ProbeCancel{Path: pid("slow"), Time: 0.1})
	o.TransferStarted(TransferStart{Path: pid("fast"), Time: 0.1, Offset: 100_000, Bytes: 900_000, Warm: true})
	o.ProbeFinished(ProbeEnd{Path: pid("fast"), Time: 0.1, Bytes: 100_000, Duration: 0.1, Class: ClassOK})
	o.ProbeFinished(ProbeEnd{Path: pid(""), Time: 0.1, Bytes: 100_000, Duration: 0.1, Class: ClassCanceled, Err: "canceled"})
	o.ProbeFinished(ProbeEnd{Path: pid("slow"), Time: 0.1, Bytes: 100_000, Duration: 0.1, Class: ClassCanceled, Err: "canceled"})
	o.TransferFinished(TransferEnd{Path: pid("fast"), Time: 1.0, Offset: 100_000,
		Bytes: 900_000, Duration: 0.9, Warm: true, Class: ClassOK})
}

func TestMetricsCountsOneRace(t *testing.T) {
	m := NewMetrics()
	playRace(m)
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
	if s.BytesDelivered != 100_000+900_000 {
		t.Fatalf("bytes delivered = %d", s.BytesDelivered)
	}

	fast := s.Paths["fast"]
	if fast.Probed != 1 || fast.Selected != 1 || fast.Utilization != 1.0 {
		t.Fatalf("fast tally = %+v", fast)
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
	m.ProbeStarted(ProbeStart{Path: pid("dead")})
	m.ProbeFinished(ProbeEnd{Path: pid("dead"), Class: ClassFailed, Err: "dial refused"})
	m.TransferStarted(TransferStart{Path: pid("dead")})
	m.TransferFinished(TransferEnd{Path: pid("dead"), Class: ClassTimeout, Err: "deadline"})
	m.RetryScheduled(Retry{Path: pid("dead"), Attempt: 1, Backoff: 0.05})
	m.TransferAborted(Abort{Path: pid("dead"), Class: ClassCanceled})

	s := m.Snapshot()
	if s.ProbesFailed != 1 || s.TransfersFailed != 1 || s.Retries != 1 || s.Aborts != 1 {
		t.Fatalf("failure counters = %+v", s)
	}
	if s.Paths["dead"].Failed != 2 {
		t.Fatalf("dead tally failed = %d, want 2", s.Paths["dead"].Failed)
	}
	if s.BytesDelivered != 0 {
		t.Fatalf("bytes delivered = %d, want 0", s.BytesDelivered)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	m := NewMetrics()
	playRace(m)
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
	playRace(m)
	labels := m.Snapshot().PathLabels()
	if len(labels) != 3 || labels[0] != "direct" || labels[1] != "fast" || labels[2] != "slow" {
		t.Fatalf("labels = %v", labels)
	}
}

func TestMultiFanoutAndNilCollapse(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("Multi of nothing should be nil")
	}
	m := NewMetrics()
	if Multi(nil, m) != Observer(m) {
		t.Fatal("Multi of one live observer should return it directly")
	}
	m2 := NewMetrics()
	playRace(Multi(m, nil, m2))
	if s1, s2 := m.Snapshot(), m2.Snapshot(); s1.ProbesFinished != 3 || s2.ProbesFinished != 3 ||
		s1.TransfersFinished != 1 || s2.TransfersFinished != 1 {
		t.Fatalf("fanout lost events: %+v / %+v", s1, s2)
	}
}

func TestBaseIsNoOp(t *testing.T) {
	var b Base
	playRace(b) // must not panic
	// Base doesn't implement the optional extension; EmitProgress must be
	// a no-op against it rather than panic.
	EmitProgress(b, Progress{Chunk: 1})
}

func TestMetricsStreamAndPoolCounters(t *testing.T) {
	m := NewMetrics()
	// A transfer that streams 3 chunks but ultimately fails: bytesStreamed
	// counts all of it, bytesDelivered none.
	for i, chunk := range []int64{64 << 10, 64 << 10, 10_000} {
		EmitProgress(m, Progress{Path: pid("fast"), Chunk: chunk,
			Delivered: int64(i+1) * chunk, Total: 1 << 20})
	}
	m.TransferFinished(TransferEnd{Path: pid("fast"), Class: ClassFailed, Err: "reset"})

	s := m.Snapshot()
	if want := int64(64<<10 + 64<<10 + 10_000); s.BytesStreamed != want {
		t.Fatalf("bytes streamed = %d, want %d", s.BytesStreamed, want)
	}
	if s.BytesDelivered != 0 {
		t.Fatalf("bytes delivered = %d, want 0 for a failed transfer", s.BytesDelivered)
	}
}

// TestMultiForwardsOptionalEvents pins the fan-out contract: wrapping a
// progress-aware sink in Multi alongside a blind one must still deliver
// progress to the aware sink.
func TestMultiForwardsOptionalEvents(t *testing.T) {
	m := NewMetrics()
	fan := Multi(Base{}, m) // Base is blind to progress
	EmitProgress(fan, Progress{Path: pid("fast"), Chunk: 512})
	if s := m.Snapshot(); s.BytesStreamed != 512 {
		t.Fatalf("progress lost in fan-out: streamed %d", s.BytesStreamed)
	}
}

// TestMetricsConcurrentSnapshots is the race-detector pass the issue asks
// for: many goroutines emitting while others snapshot continuously.
func TestMetricsConcurrentSnapshots(t *testing.T) {
	m := NewMetrics()
	fan := Multi(m, NewMetrics())
	const workers, rounds = 8, 200

	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				playRace(fan)
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
