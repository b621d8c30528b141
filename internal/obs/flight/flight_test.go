package flight

import (
	"context"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// start opens a record that feeds only the recorder.
func start(r *Recorder, service, path, object string) *Record {
	rec := new(Record)
	rec.Start(Spec{Flight: r, Service: service, Path: path, Object: object})
	return rec
}

// record runs one whole transfer through the recorder with the given
// identity and outcome.
func record(r *Recorder, path, object string, class obs.ErrClass) {
	t := start(r, "client", path, object)
	t.Phase("dial")
	t.Phase("stream")
	t.StoreBytes(100)
	t.Outcome(class, "")
	t.Finish()
}

func TestRecorderRingRotationAndFilter(t *testing.T) {
	r := NewRecorder(4, false)
	record(r, "direct", "a.bin", obs.ClassOK)
	record(r, "relay:r1", "a.bin", obs.ClassOK)
	record(r, "direct", "b.bin", obs.ClassFailed)
	record(r, "relay:r1", "b.bin", obs.ClassOK)

	evs := r.Events(Filter{})
	if len(evs) != 4 {
		t.Fatalf("got %d events, want 4", len(evs))
	}
	// Newest first: the last finish is the first row.
	if evs[0].Path != "relay:r1" || evs[0].Object != "b.bin" {
		t.Fatalf("newest event = %+v, want the relay:r1/b.bin finish", evs[0])
	}
	if evs[0].Seq <= evs[1].Seq {
		t.Fatalf("events not newest-first: seqs %d, %d", evs[0].Seq, evs[1].Seq)
	}
	if r.Dropped() != 0 {
		t.Fatalf("Dropped = %d before rotation", r.Dropped())
	}

	// Two more finishes rotate the two oldest out of the 4-slot ring.
	record(r, "direct", "c.bin", obs.ClassOK)
	record(r, "direct", "d.bin", obs.ClassOK)
	if got := r.Dropped(); got != 2 {
		t.Fatalf("Dropped = %d after rotation, want 2", got)
	}
	for _, ev := range r.Events(Filter{}) {
		if ev.Object == "a.bin" {
			t.Fatalf("rotated-out event still served: %+v", ev)
		}
	}

	// Filters are conjunctive and exact.
	if evs := r.Events(Filter{Path: "direct", Class: "failed"}); len(evs) != 1 || evs[0].Object != "b.bin" {
		t.Fatalf("path+class filter = %+v", evs)
	}
	if evs := r.Events(Filter{Path: "direct", N: 1}); len(evs) != 1 || evs[0].Object != "d.bin" {
		t.Fatalf("N=1 should keep only the newest direct event, got %+v", evs)
	}
	if evs := r.Events(Filter{Object: "nope"}); len(evs) != 0 {
		t.Fatalf("non-matching filter returned %+v", evs)
	}
	if r.Seen() != 6 {
		t.Fatalf("Seen = %d, want 6", r.Seen())
	}
}

func TestRecorderEventFields(t *testing.T) {
	r := NewRecorder(8, false)
	trace := obs.NewTraceID()
	tr := new(Record)
	tr.Start(Spec{Flight: r, Service: "relay", Path: "127.0.0.1:9999", Object: "obj.bin",
		Warm: true, Parent: obs.SpanContext{Trace: trace, Span: obs.NewSpanID()}})
	tr.SetCache("miss")
	tr.Retry()
	tr.Phase("dial")
	tr.Phase("ttfb")
	tr.Phase("dial") // a retry revisits an earlier phase name
	tr.Phase("stream")
	tr.AddBytes(40)
	tr.AddBytes(2)
	tr.Outcome(obs.ClassFailed, "connection reset")
	tr.Finish()
	tr.Outcome(obs.ClassOK, "")
	tr.Finish() // only the first Finish counts

	evs := r.Events(Filter{Trace: trace.String()})
	if len(evs) != 1 {
		t.Fatalf("trace filter found %d events", len(evs))
	}
	ev := evs[0]
	if ev.Service != "relay" || ev.Class != "failed" || ev.Err != "connection reset" ||
		ev.Cache != "miss" || !ev.Warm || ev.Retries != 1 || ev.Bytes != 42 {
		t.Fatalf("event fields wrong: %+v", ev)
	}
	// Only consecutive same-named phases accumulate, so transition
	// order survives: dial, ttfb, dial (the retry), stream.
	var names []string
	for _, p := range ev.Phases {
		names = append(names, p.Name)
	}
	if strings.Join(names, ",") != "dial,ttfb,dial,stream" {
		t.Fatalf("phases = %v", names)
	}
}

func TestActiveTable(t *testing.T) {
	r := NewRecorder(0, false)
	old := start(r, "client", "direct", "a.bin")
	young := start(r, "client", "relay:r1", "b.bin")
	young.Phase("ttfb")
	young.StoreBytes(7)

	act := r.Active()
	if len(act) != 2 {
		t.Fatalf("Active = %d rows, want 2", len(act))
	}
	if act[0].ID != 1 || act[1].ID != 2 {
		t.Fatalf("active rows not oldest-first: %+v", act)
	}
	if act[1].Phase != "ttfb" || act[1].Bytes != 7 || act[1].AgeSecs < 0 {
		t.Fatalf("live row wrong: %+v", act[1])
	}

	old.Finish()
	young.Finish()
	if act := r.Active(); len(act) != 0 {
		t.Fatalf("Active after finish = %+v", act)
	}
}

func TestParseQuery(t *testing.T) {
	f := ParseQuery("/debug/requests?path=direct&class=failed&object=a.bin&trace=ff&n=20")
	want := Filter{Path: "direct", Class: "failed", Object: "a.bin", Trace: "ff", N: 20}
	if f != want {
		t.Fatalf("ParseQuery = %+v, want %+v", f, want)
	}
	if f := ParseQuery("/debug/requests"); f != (Filter{}) {
		t.Fatalf("no query should match all, got %+v", f)
	}
	if f := ParseQuery("/debug/requests?bogus=1&n=x"); f != (Filter{}) {
		t.Fatalf("unknown keys and bad ints should be ignored, got %+v", f)
	}
	// name is /debug/bundle's key, unknown here: it bounds no listing.
	if f := ParseQuery("/debug/requests?name=5"); f != (Filter{}) {
		t.Fatalf("?name= should be ignored, got %+v", f)
	}
}

func TestNilRecorderAndTransferNoOp(t *testing.T) {
	var r *Recorder
	tr := start(r, "client", "direct", "a.bin")
	// A record started with nothing attached stays closed; every method
	// must still be callable on it.
	tr.Phase("dial")
	tr.PhaseAttr("addr", "x")
	tr.SetAttr("path", "direct")
	tr.StoreBytes(1)
	tr.AddBytes(1)
	tr.SetCache("hit")
	tr.Retry()
	tr.Finish()
	if tr.Tracing() || tr.Context().Valid() {
		t.Fatal("closed record claims to trace")
	}
	if r.Seen() != 0 || r.Dropped() != 0 {
		t.Fatal("nil recorder counted something")
	}
	if r.Events(Filter{}) != nil || r.Active() != nil {
		t.Fatal("nil recorder served rows")
	}
}

func TestRecorderConcurrentUse(t *testing.T) {
	r := NewRecorder(32, true)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				class := obs.ClassOK
				if i%7 == 0 { // forced rows, so eviction skips some
					class = obs.ClassFailed
				}
				record(r, "direct", "a.bin", class)
			}
		}()
	}
	// Concurrent readers race the writers; the race detector is the
	// assertion.
	for i := 0; i < 20; i++ {
		r.Events(Filter{Path: "direct"})
		r.Spans()
		r.Active()
	}
	wg.Wait()
	r.WaitIdle()
	if r.Seen() != 400 || r.Dropped() != 400-32 {
		t.Fatalf("Seen = %d, Dropped = %d; want 400, 368", r.Seen(), r.Dropped())
	}
}

func TestDoLabeledGate(t *testing.T) {
	// Gate down: fn runs with the caller's context untouched.
	ran := false
	DoLabeled(context.Background(), "fetch", func(ctx context.Context) { ran = true })
	if !ran {
		t.Fatal("DoLabeled skipped fn with the gate down")
	}
	// Gate up: fn still runs (under labels).
	labelsActive.Add(1)
	defer labelsActive.Add(-1)
	ran = false
	DoLabeled(context.Background(), "fetch", func(ctx context.Context) { ran = true })
	if !ran {
		t.Fatal("DoLabeled skipped fn with the gate up")
	}
}
