package flight

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/obs"
)

// finishRow runs one scripted record of duration d through the store and
// returns its span context: a local root unless parent is valid and op
// is not a root op.
func finishRow(advance func(time.Duration), r *Recorder, op string, parent obs.SpanContext, d time.Duration, class obs.ErrClass) obs.SpanContext {
	var rec Record
	rec.Start(Spec{Flight: r, Service: "relay", Phase: op, Path: "up", Parent: parent})
	advance(d)
	rec.Outcome(class, "")
	rec.Finish()
	return rec.Context()
}

// stored counts the store's rows per trace (finishRow marks no phases,
// so each row is one span).
func stored(r *Recorder) map[obs.TraceID]int {
	out := map[obs.TraceID]int{}
	for _, s := range r.Spans() {
		out[s.Trace]++
	}
	return out
}

func TestIsTailRootPhases(t *testing.T) {
	if !isTailRoot(&Event{Op: "forward", Parent: "00000000000000ff"}) {
		t.Fatal("forward row with a cross-process parent must still be a local root")
	}
	if isTailRoot(&Event{Op: "transfer", Parent: "00000000000000ff"}) {
		t.Fatal("transfer under a select is not a root")
	}
	if !isTailRoot(&Event{Op: "custom"}) {
		t.Fatal("parentless row is a root regardless of op")
	}
}

// TestTailErrorRootAlwaysKept: an errored root forces its trace — the
// child row that finished before it and the late one after it — so a
// stream of ordinary rows rotates through the rest of the ring around
// them.
func TestTailErrorRootAlwaysKept(t *testing.T) {
	advance := scriptClock(t)
	r := NewRecorder(8, true)
	root := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	finishRow(advance, r, "transfer", root, 10, obs.ClassOK)
	finishRow(advance, r, "select", obs.SpanContext{Trace: root.Trace}, 100, obs.ClassFailed)
	finishRow(advance, r, "transfer", root, 10, obs.ClassCanceled) // the reaped loser, late
	for i := 0; i < 10; i++ {
		finishRow(advance, r, "forward", obs.SpanContext{}, 100, obs.ClassOK)
	}
	if got := stored(r)[root.Trace]; got != 3 {
		t.Fatalf("errored trace keeps %d rows, want its 3", got)
	}
	if r.Dropped() != 5 || r.tail.rows != 3 {
		t.Fatalf("dropped %d, forced rows %d; want 5 boring rows overwritten, 3 forced", r.Dropped(), r.tail.rows)
	}
}

func TestTailSlowDecileForcedKeep(t *testing.T) {
	advance := scriptClock(t)
	r := NewRecorder(4, true)
	// Window seeding: 18 fast roots and 2 slow ones put the p90 estimate
	// at the slow value, so later fast roots stay boring and a genuinely
	// slow root trips the forced-slow rule. (The threshold is computed
	// lazily on the first decision with minSlow on record.)
	for i := 0; i < 18; i++ {
		finishRow(advance, r, "forward", obs.SpanContext{}, 1000, obs.ClassOK)
	}
	finishRow(advance, r, "forward", obs.SpanContext{}, 100000, obs.ClassOK)
	finishRow(advance, r, "forward", obs.SpanContext{}, 100000, obs.ClassOK)
	if r.tail.rows != 0 {
		t.Fatalf("%d seeds forced before the window had %d samples", r.tail.rows, r.tail.minSlow)
	}
	fast := finishRow(advance, r, "forward", obs.SpanContext{}, 1000, obs.ClassOK)
	slow := finishRow(advance, r, "forward", obs.SpanContext{}, 500000, obs.ClassOK)
	for i := 0; i < 3; i++ {
		finishRow(advance, r, "forward", obs.SpanContext{}, 1000, obs.ClassOK)
	}
	kept := stored(r)
	if kept[slow.Trace] != 1 || r.tail.rows != 1 {
		t.Fatalf("slow root's row not kept (forced rows %d)", r.tail.rows)
	}
	if kept[fast.Trace] != 0 {
		t.Fatal("fast boring root outlived the rows after it")
	}
}

func TestTailSlowThresholdSlidesWithWindow(t *testing.T) {
	// A tiny window with refresh-every-sample shows the cached threshold
	// tracking the ring: after it fills with slow samples, a
	// formerly-slow duration stops being remarkable.
	advance := scriptClock(t)
	r := NewRecorder(64, true)
	r.tail.window, r.tail.minSlow = 8, 4
	// Descending durations: each new root is below the window's p90, so
	// none of the seeds trips the slow rule (the comparison is >=, so
	// identical or ascending values would).
	for d := time.Duration(9); d >= 2; d-- {
		finishRow(advance, r, "forward", obs.SpanContext{}, d, obs.ClassOK)
	}
	finishRow(advance, r, "forward", obs.SpanContext{}, 1000, obs.ClassOK) // slow vs single-digit window
	if r.tail.rows != 1 {
		t.Fatalf("forced rows %d after outlier, want 1", r.tail.rows)
	}
	// Fill the window with 1000s; the threshold refreshes (window/8 == 1
	// sample) and 500 is now below the decile.
	for i := 0; i < 8; i++ {
		finishRow(advance, r, "forward", obs.SpanContext{}, 1000, obs.ClassOK)
	}
	before := r.tail.rows
	finishRow(advance, r, "forward", obs.SpanContext{}, 500, obs.ClassOK)
	if r.tail.rows != before {
		t.Fatalf("500ns root forced-slow against a window of 1000s (%d -> %d)", before, r.tail.rows)
	}
}

func TestTailBudgetEvictsBoringBeforeForced(t *testing.T) {
	// A ring of two: a boring row, a forced one, then another boring one
	// must overwrite the oldest boring row, never the error.
	advance := scriptClock(t)
	r := NewRecorder(2, true)
	boring1 := finishRow(advance, r, "forward", obs.SpanContext{}, 100, obs.ClassOK)
	errT := finishRow(advance, r, "forward", obs.SpanContext{}, 100, obs.ClassFailed)
	boring2 := finishRow(advance, r, "forward", obs.SpanContext{}, 100, obs.ClassOK)
	if r.Dropped() != 1 {
		t.Fatalf("Dropped %d, want 1", r.Dropped())
	}
	kept := stored(r)
	if kept[boring1.Trace] != 0 {
		t.Fatal("oldest boring row survived; it should be overwritten first")
	}
	if kept[errT.Trace] != 1 || kept[boring2.Trace] != 1 {
		t.Fatalf("kept set %v, want the error row and the newest boring one", kept)
	}
}

func TestTailBudgetEvictsForcedWhenNoBoringLeft(t *testing.T) {
	advance := scriptClock(t)
	r := NewRecorder(1, true)
	finishRow(advance, r, "forward", obs.SpanContext{}, 100, obs.ClassFailed)
	second := finishRow(advance, r, "forward", obs.SpanContext{}, 100, obs.ClassFailed)
	if r.Dropped() != 1 {
		t.Fatalf("Dropped %d, want 1 (the older forced row)", r.Dropped())
	}
	if spans := r.Spans(); len(spans) != 1 || spans[0].Trace != second.Trace {
		t.Fatalf("kept %v, want only the newer forced row %s", spans, second.Trace)
	}
	if r.tail.rows != 1 || !r.ring[0].forced {
		t.Fatalf("forced rows %d, want the one stored", r.tail.rows)
	}
}

// TestTailForcedRowsCapped: under sustained traffic — the slow decile
// active, errors mixed in, client traces forcing rows they already
// stored — forced rows never pin more than half the ring, so the
// newest half of the ring is always the newest rows finished.
func TestTailForcedRowsCapped(t *testing.T) {
	advance := scriptClock(t)
	rng := rand.New(rand.NewSource(1))
	const ring = 32
	r := NewRecorder(ring, true)
	var order []string // span IDs, finish order
	finish := func(op string, parent obs.SpanContext, class obs.ErrClass) obs.SpanContext {
		sc := finishRow(advance, r, op, parent, time.Duration(1+rng.Intn(1000)), class)
		order = append(order, sc.Span.String())
		return sc
	}
	class := func() obs.ErrClass {
		if rng.Intn(20) == 0 {
			return obs.ClassFailed
		}
		return obs.ClassOK
	}
	for len(order) < 20*ring {
		if rng.Intn(4) == 0 {
			tr := obs.NewTraceID()
			sel := obs.SpanContext{Trace: tr, Span: obs.NewSpanID()}
			finish("transfer", sel, obs.ClassOK)
			finish("select", obs.SpanContext{Trace: tr}, class())
		} else {
			finish("forward", obs.SpanContext{}, class())
		}
		marked := 0
		for i := range r.ring {
			if r.ring[i].forced {
				marked++
			}
		}
		if marked != r.tail.rows || marked > forcedCap(ring) {
			t.Fatalf("after %d rows: %d forced, %d counted, cap %d", len(order), marked, r.tail.rows, forcedCap(ring))
		}
		evs := r.Events(Filter{})
		for k := 0; k < ring/2 && k < len(order); k++ {
			if want := order[len(order)-1-k]; evs[k].Span != want {
				t.Fatalf("after %d rows: newest row %d is %s, want %s", len(order), k, evs[k].Span, want)
			}
		}
	}
	if r.tail.rows != forcedCap(ring) {
		t.Fatalf("forced rows %d at saturation, want the cap %d", r.tail.rows, forcedCap(ring))
	}
}

// TestWaitIdleWaitsForFinish: WaitIdle returns only once every started
// record has finished, and then the rows are in the store.
func TestWaitIdleWaitsForFinish(t *testing.T) {
	r := NewRecorder(4, true)
	r.WaitIdle() // nothing started
	rec := start(r, "client", "direct", "a.bin")
	started, done := make(chan struct{}), make(chan struct{})
	go func() { close(started); r.WaitIdle(); close(done) }()
	<-started
	select {
	case <-done:
		t.Fatal("WaitIdle returned with a record open")
	case <-time.After(20 * time.Millisecond):
	}
	rec.Finish()
	<-done
	if len(r.Events(Filter{})) != 1 || len(r.Spans()) != 1 {
		t.Fatal("the finished record's row is not in the store")
	}
	(*Recorder)(nil).WaitIdle()
}
