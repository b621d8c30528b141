package obs

import (
	"encoding/json"
	"strings"
	"testing"
)

func mustJSON(t *testing.T, v any) string {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return string(b)
}

// tailSpan builds a root span (phase "forward") for one trace.
func tailRoot(trace TraceID, durNanos int64, class ErrClass) Span {
	return Span{
		Trace: trace, ID: NewSpanID(),
		Service: "relay", Phase: "forward",
		Start: 0, Duration: durNanos, Class: class.String(),
	}
}

// tailChild builds a non-root child span for a trace.
func tailChild(trace TraceID) Span {
	return Span{
		Trace: trace, ID: NewSpanID(), Parent: NewSpanID(),
		Service: "relay", Phase: "dial", Duration: 10, Class: ClassOK.String(),
	}
}

func keepAll() func() float64  { return func() float64 { return 0 } }
func keepNone() func() float64 { return func() float64 { return 0.999999 } }

func TestTailKeepProbZeroDropsBoring(t *testing.T) {
	c := NewTailSpanCollector(TailConfig{KeepProb: 0, Rand: keepNone()})
	for i := 0; i < 10; i++ {
		c.Record(tailRoot(NewTraceID(), 100, ClassOK))
	}
	st := c.TailStats()
	if st.KeptTraces != 0 || st.DroppedTraces != 10 {
		t.Fatalf("kept %d dropped %d, want 0/10", st.KeptTraces, st.DroppedTraces)
	}
	if got := len(c.Spans()); got != 0 {
		t.Fatalf("Spans() returned %d spans after dropping everything", got)
	}
	if c.Dropped() != 10 {
		t.Fatalf("Dropped() %d, want 10", c.Dropped())
	}
}

func TestTailKeepProbOneKeepsBoring(t *testing.T) {
	c := NewTailSpanCollector(TailConfig{KeepProb: 1, Rand: keepAll()})
	for i := 0; i < 10; i++ {
		c.Record(tailRoot(NewTraceID(), 100, ClassOK))
	}
	st := c.TailStats()
	if st.KeptTraces != 10 || st.RandKept != 10 || st.DroppedTraces != 0 {
		t.Fatalf("kept %d randKept %d dropped %d, want 10/10/0",
			st.KeptTraces, st.RandKept, st.DroppedTraces)
	}
	if got := len(c.Spans()); got != 10 {
		t.Fatalf("Spans() returned %d, want 10", got)
	}
}

func TestTailErrorRootAlwaysKept(t *testing.T) {
	// KeepProb 0 and a never-keep Rand: only the forced rules can keep.
	c := NewTailSpanCollector(TailConfig{KeepProb: 0, Rand: keepNone()})
	errTrace := NewTraceID()
	c.Record(tailChild(errTrace))
	c.Record(tailRoot(errTrace, 100, ClassFailed))
	c.Record(tailRoot(NewTraceID(), 100, ClassOK)) // boring, dropped
	st := c.TailStats()
	if st.ForcedError != 1 || st.KeptTraces != 1 {
		t.Fatalf("forcedError %d kept %d, want 1/1", st.ForcedError, st.KeptTraces)
	}
	spans := c.Spans()
	if len(spans) != 2 {
		t.Fatalf("kept %d spans, want the errored trace's 2", len(spans))
	}
	for _, s := range spans {
		if s.Trace != errTrace {
			t.Fatalf("kept span of trace %s, want only %s", s.Trace, errTrace)
		}
	}
}

func TestTailSlowDecileForcedKeep(t *testing.T) {
	c := NewTailSpanCollector(TailConfig{KeepProb: 0, Rand: keepNone()})
	// Window seeding: 18 fast roots and 2 slow ones put the p90 estimate
	// at the slow value, so later fast roots stay boring and a genuinely
	// slow root trips the forced-slow rule. (The threshold is computed
	// lazily on the first decision with MinSlowSamples on record.)
	for i := 0; i < 18; i++ {
		c.Record(tailRoot(NewTraceID(), 1000, ClassOK))
	}
	c.Record(tailRoot(NewTraceID(), 100000, ClassOK))
	c.Record(tailRoot(NewTraceID(), 100000, ClassOK))

	fast := NewTraceID()
	c.Record(tailRoot(fast, 1000, ClassOK))
	before := c.TailStats()

	slow := NewTraceID()
	c.Record(tailRoot(slow, 500000, ClassOK))
	after := c.TailStats()

	if after.ForcedSlow != before.ForcedSlow+1 {
		t.Fatalf("slow root did not bump ForcedSlow (%d -> %d)", before.ForcedSlow, after.ForcedSlow)
	}
	found := false
	for _, s := range c.Spans() {
		if s.Trace == slow {
			found = true
		}
		if s.Trace == fast {
			t.Fatal("fast boring root was kept despite KeepProb 0")
		}
	}
	if !found {
		t.Fatal("slow root's trace not in kept spans")
	}
}

func TestTailSlowThresholdSlidesWithWindow(t *testing.T) {
	// A tiny window with refresh-every-sample shows the cached threshold
	// tracking the ring: after the ring fills with slow samples, a
	// formerly-slow duration stops being remarkable.
	c := NewTailSpanCollector(TailConfig{
		KeepProb: 0, Rand: keepNone(),
		SlowWindow: 8, MinSlowSamples: 4,
	})
	// Descending durations: each new root is below the window's p90, so
	// none of the seeds trips the slow rule (the comparison is >=, so
	// identical or ascending values would).
	for d := int64(9); d >= 2; d-- {
		c.Record(tailRoot(NewTraceID(), d, ClassOK))
	}
	c.Record(tailRoot(NewTraceID(), 1000, ClassOK)) // slow vs single-digit window
	st1 := c.TailStats()
	if st1.ForcedSlow != 1 {
		t.Fatalf("ForcedSlow %d after outlier, want 1", st1.ForcedSlow)
	}
	// Fill the ring with 1000s; the threshold refreshes (SlowWindow/8 ==
	// 1 sample) and 500 is now below the decile.
	for i := 0; i < 8; i++ {
		c.Record(tailRoot(NewTraceID(), 1000, ClassOK))
	}
	before := c.TailStats()
	c.Record(tailRoot(NewTraceID(), 500, ClassOK))
	after := c.TailStats()
	if after.ForcedSlow != before.ForcedSlow {
		t.Fatalf("500ns root forced-slow against a window of 1000s (%d -> %d)",
			before.ForcedSlow, after.ForcedSlow)
	}
}

func TestTailBudgetEvictsBoringBeforeForced(t *testing.T) {
	// Budget sized to hold roughly two traces: keeping a boring trace, a
	// forced one, and another boring one must evict the oldest boring
	// trace, never the error.
	probe := spanBytes(tailRoot(NewTraceID(), 100, ClassOK))
	c := NewTailSpanCollector(TailConfig{
		KeepProb:   1,
		Rand:       keepAll(),
		ByteBudget: probe*2 + probe/2,
	})
	boring1, errT, boring2 := NewTraceID(), NewTraceID(), NewTraceID()
	c.Record(tailRoot(boring1, 100, ClassOK))
	c.Record(tailRoot(errT, 100, ClassFailed))
	c.Record(tailRoot(boring2, 100, ClassOK))

	st := c.TailStats()
	if st.Evicted != 1 {
		t.Fatalf("Evicted %d, want 1", st.Evicted)
	}
	if st.KeptBytes > st.ByteBudget {
		t.Fatalf("KeptBytes %d exceeds budget %d", st.KeptBytes, st.ByteBudget)
	}
	traces := map[TraceID]bool{}
	for _, s := range c.Spans() {
		traces[s.Trace] = true
	}
	if traces[boring1] {
		t.Fatal("oldest boring trace survived; it should evict first")
	}
	if !traces[errT] || !traces[boring2] {
		t.Fatalf("kept set %v, want the error trace and the newest boring one", traces)
	}
}

func TestTailBudgetEvictsForcedWhenNoBoringLeft(t *testing.T) {
	probe := spanBytes(tailRoot(NewTraceID(), 100, ClassFailed))
	c := NewTailSpanCollector(TailConfig{
		KeepProb:   0,
		Rand:       keepNone(),
		ByteBudget: probe + probe/2,
	})
	first, second := NewTraceID(), NewTraceID()
	c.Record(tailRoot(first, 100, ClassFailed))
	c.Record(tailRoot(second, 100, ClassFailed))
	st := c.TailStats()
	if st.Evicted != 1 {
		t.Fatalf("Evicted %d, want 1 (the older forced keep)", st.Evicted)
	}
	spans := c.Spans()
	if len(spans) != 1 || spans[0].Trace != second {
		t.Fatalf("kept %v, want only the newer forced trace %s", spans, second)
	}
}

func TestTailLateSpansFollowTheirTraceDecision(t *testing.T) {
	c := NewTailSpanCollector(TailConfig{KeepProb: 0, Rand: keepNone()})
	kept, droppedT := NewTraceID(), NewTraceID()
	c.Record(tailRoot(kept, 100, ClassFailed)) // forced keep
	c.Record(tailRoot(droppedT, 100, ClassOK)) // dropped
	// Late arrivals after the decision:
	c.Record(tailChild(kept))
	before := c.TailStats()
	c.Record(tailChild(droppedT))
	after := c.TailStats()

	if after.DroppedSpans != before.DroppedSpans+1 {
		t.Fatalf("late span of a dropped trace not counted (%d -> %d)",
			before.DroppedSpans, after.DroppedSpans)
	}
	var keptSpans int
	for _, s := range c.Spans() {
		if s.Trace == kept {
			keptSpans++
		}
		if s.Trace == droppedT {
			t.Fatal("late span of a dropped trace resurfaced")
		}
	}
	if keptSpans != 2 {
		t.Fatalf("kept trace holds %d spans, want root + late child", keptSpans)
	}

	// Under the keep-everything constructor: the client's select root
	// lands, then the cancelled loser's transfer span — its goroutine
	// still unwinding when SelectAndFetch returned — and joins its family.
	all := NewSpanCollector(16)
	root := Span{Trace: NewTraceID(), ID: NewSpanID(), Service: "client", Phase: "select",
		Duration: 100, Class: ClassOK.String()}
	all.Record(root)
	all.Record(Span{Trace: root.Trace, ID: NewSpanID(), Parent: root.ID, Service: "client",
		Phase: "transfer", Class: ClassCanceled.String()})
	if got := all.Spans(); len(got) != 2 || got[1].Parent != root.ID || all.Dropped() != 0 {
		t.Fatalf("late loser did not join its kept trace: %+v (dropped %d)", got, all.Dropped())
	}
	if st := all.TailStats(); st.KeptTraces != 1 || st.Pending != 0 {
		t.Fatalf("keep-everything stats = %+v, want one kept trace, none pending", st)
	}
}

func TestTailPendingOverflowDropsOldest(t *testing.T) {
	c := NewTailSpanCollector(TailConfig{KeepProb: 1, Rand: keepAll(), MaxPending: 2})
	t1, t2, t3 := NewTraceID(), NewTraceID(), NewTraceID()
	c.Record(tailChild(t1))
	c.Record(tailChild(t2))
	c.Record(tailChild(t3)) // overflow: t1 evicted undecided
	st := c.TailStats()
	if st.Pending != 2 {
		t.Fatalf("pending %d, want 2", st.Pending)
	}
	if st.DroppedTraces != 1 {
		t.Fatalf("droppedTraces %d, want the overflowed pending one", st.DroppedTraces)
	}
	// t1's root arriving later is a span of a dropped trace.
	c.Record(tailRoot(t1, 100, ClassFailed))
	st2 := c.TailStats()
	if st2.ForcedError != 0 {
		t.Fatal("root of an overflow-dropped trace was decided anyway")
	}
}

func TestTailSpansOrderKeptThenPending(t *testing.T) {
	c := NewTailSpanCollector(TailConfig{KeepProb: 1, Rand: keepAll()})
	first, second, pending := NewTraceID(), NewTraceID(), NewTraceID()
	c.Record(tailRoot(first, 100, ClassOK))
	c.Record(tailRoot(second, 100, ClassOK))
	c.Record(tailChild(pending)) // no root: stays pending
	spans := c.Spans()
	if len(spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(spans))
	}
	if spans[0].Trace != first || spans[1].Trace != second || spans[2].Trace != pending {
		t.Fatalf("span order %v/%v/%v, want kept in decision order then pending",
			spans[0].Trace, spans[1].Trace, spans[2].Trace)
	}
}

func TestTailEvictionQueueCompaction(t *testing.T) {
	// Many keeps against a tiny budget exercise popKept's lazy skipping
	// and prefix compaction; the invariants are that kept bytes stay
	// within budget and Spans stays consistent throughout.
	probe := spanBytes(tailRoot(NewTraceID(), 100, ClassOK))
	c := NewTailSpanCollector(TailConfig{
		KeepProb:   1,
		Rand:       keepAll(),
		ByteBudget: probe * 4,
	})
	for i := 0; i < 500; i++ {
		class := ClassOK
		if i%7 == 0 {
			class = ClassFailed
		}
		c.Record(tailRoot(NewTraceID(), 100, class))
		if st := c.TailStats(); st.KeptBytes > st.ByteBudget {
			t.Fatalf("iteration %d: kept bytes %d over budget %d", i, st.KeptBytes, st.ByteBudget)
		}
	}
	st := c.TailStats()
	if st.KeptTraces != 500 {
		t.Fatalf("KeptTraces %d, want 500 decisions kept", st.KeptTraces)
	}
	if st.Evicted < 490 {
		t.Fatalf("Evicted %d, want nearly all of the 500 under a 4-trace budget", st.Evicted)
	}
	if got := len(c.Spans()); got > 4 {
		t.Fatalf("Spans() returned %d, want at most the budgeted 4", got)
	}
}

func TestIsTailRootPhases(t *testing.T) {
	root := Span{Phase: "forward", Parent: NewSpanID()}
	if !isTailRoot(root) {
		t.Fatal("forward span with a cross-process parent must still be a local root")
	}
	child := Span{Phase: "dial", Parent: NewSpanID()}
	if isTailRoot(child) {
		t.Fatal("dial child is not a root")
	}
	parentless := Span{Phase: "custom"}
	if !isTailRoot(parentless) {
		t.Fatal("parentless span is a root regardless of phase")
	}
}

func TestTailConfigDefaults(t *testing.T) {
	cfg := TailConfig{}.withDefaults()
	if cfg.ByteBudget != 1<<20 || cfg.SlowWindow != 256 ||
		cfg.MinSlowSamples != 20 || cfg.MaxPending != 1024 || cfg.Rand == nil {
		t.Fatalf("unexpected defaults: %+v", cfg)
	}
	if cfg.KeepProb != 0 {
		t.Fatal("KeepProb must default to zero — the zero value is meaningful")
	}
}

func TestTailStatsJSONFieldNames(t *testing.T) {
	c := NewTailSpanCollector(TailConfig{KeepProb: 1, Rand: keepAll()})
	c.Record(tailRoot(NewTraceID(), 100, ClassOK))
	st := c.TailStats()
	b := mustJSON(t, st)
	for _, key := range []string{"kept_traces", "dropped_traces", "forced_error",
		"forced_slow", "rand_kept", "evicted", "dropped_spans", "kept_bytes",
		"byte_budget", "pending"} {
		if !strings.Contains(b, `"`+key+`"`) {
			t.Fatalf("TailStats JSON %s missing key %q", b, key)
		}
	}
}
