package flight

import (
	"testing"
	"time"

	"repro/internal/obs"
)

// scriptClock replaces the record's clock with one the script advances by
// hand, so phase boundaries are exact.
func scriptClock(t *testing.T) (advance func(time.Duration)) {
	t.Helper()
	now := time.Unix(1_700_000_000, 0)
	clock = func() time.Time { return now }
	t.Cleanup(func() { clock = time.Now })
	return func(d time.Duration) { now = now.Add(d) }
}

// step is one scripted call on a record: mark a phase (after the clock
// has moved on by `after`), or schedule a retry.
type step struct {
	after time.Duration
	phase string
	retry bool
}

// TestRecordFeedsEverySinkConsistently drives scripted transfers into
// all four sinks at once and asserts they tell one story: the phases
// tile the record's duration, the child spans are the wide event's
// phases, only the phase the transfer died in is marked, and exemplar,
// health fold and wide event agree on class, elapsed time and trace.
func TestRecordFeedsEverySinkConsistently(t *testing.T) {
	ms := time.Millisecond
	cases := []struct {
		name   string
		steps  []step
		tail   time.Duration // time in the last phase before Finish
		class  obs.ErrClass
		detail string
		phases []Phase // the expected wide-event phases
	}{
		{
			name:  "ok",
			steps: []step{{0, "dial", false}, {3 * ms, "ttfb", false}, {5 * ms, "stream", false}},
			tail:  40 * ms, class: obs.ClassOK,
			phases: []Phase{{Name: "dial", Secs: 0.003}, {Name: "ttfb", Secs: 0.005}, {Name: "stream", Secs: 0.040}},
		},
		{
			name: "retried dial accumulates",
			steps: []step{{0, "dial", false}, {2 * ms, "", true}, {10 * ms, "dial", false},
				{4 * ms, "ttfb", false}, {1 * ms, "stream", false}},
			tail: 7 * ms, class: obs.ClassOK,
			phases: []Phase{{Name: "dial", Secs: 0.016}, {Name: "ttfb", Secs: 0.001}, {Name: "stream", Secs: 0.007}},
		},
		{
			name:  "dies in ttfb",
			steps: []step{{0, "dial", false}, {3 * ms, "ttfb", false}},
			tail:  250 * ms, class: obs.ClassTimeout, detail: "i/o timeout",
			phases: []Phase{{Name: "dial", Secs: 0.003}, {Name: "ttfb", Secs: 0.250}},
		},
		{
			name:  "status is not a death",
			steps: []step{{0, "dial", false}, {1 * ms, "ttfb", false}, {2 * ms, "stream", false}},
			tail:  1 * ms, class: obs.ClassStatus, detail: "Not Found",
			phases: []Phase{{Name: "dial", Secs: 0.001}, {Name: "ttfb", Secs: 0.002}, {Name: "stream", Secs: 0.001}},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			advance := scriptClock(t)
			rec := NewRecorder(4, true)
			var lat obs.LatencyRecorder
			mon := obs.NewHealthMonitor(obs.HealthConfig{Clock: func() float64 { return 0 }})
			parent := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}

			var r Record
			r.Start(Spec{
				Flight: rec, Latency: &lat, Health: mon,
				Service: "client", Phase: "transfer", Path: "r1", Object: "obj.bin",
				Parent: parent})
			r.FoldKey("r1")
			retries := 0
			for _, s := range tc.steps {
				advance(s.after)
				if s.retry {
					retries++
					r.Retry()
					continue
				}
				r.Phase(s.phase)
			}
			r.AddBytes(1000)
			if act := rec.Active(); len(act) != 1 || act[0].Phase != tc.phases[len(tc.phases)-1].Name ||
				act[0].Bytes != 1000 || act[0].Retries != retries || act[0].Trace != parent.Trace.String() {
				t.Fatalf("live row = %+v", act)
			}
			advance(tc.tail)
			r.Outcome(tc.class, tc.detail)
			r.Finish()
			// A second Finish — with a different story — changes nothing.
			advance(time.Hour)
			r.Outcome(obs.ClassFailed, "late")
			r.Finish()

			// The wide event.
			evs := rec.Events(Filter{})
			if len(evs) != 1 || len(rec.Active()) != 0 {
				t.Fatalf("events %+v, active %+v", evs, rec.Active())
			}
			ev := evs[0]
			if ev.Class != tc.class.String() || ev.Err != tc.detail || ev.Bytes != 1000 ||
				ev.Retries != retries || ev.Path != "r1" || ev.Trace != parent.Trace.String() {
				t.Fatalf("event = %+v", ev)
			}
			var sum float64
			for i, p := range ev.Phases {
				if i >= len(tc.phases) || p.Name != tc.phases[i].Name || !near(p.Secs, tc.phases[i].Secs) {
					t.Fatalf("phases = %+v, want %+v", ev.Phases, tc.phases)
				}
				sum += p.Secs
			}
			if len(ev.Phases) != len(tc.phases) || !near(sum, ev.Duration) {
				t.Fatalf("phases %+v sum to %v, record took %v", ev.Phases, sum, ev.Duration)
			}

			// The spans: children are the event's phases, in order, under
			// the parent; only the last is marked, and only by a death.
			got := rec.Spans()
			if len(got) != len(tc.phases)+1 {
				t.Fatalf("%d spans, want %d phases + parent: %+v", len(got), len(tc.phases), got)
			}
			top := got[len(got)-1]
			if top.Service != "client" || top.Phase != "transfer" || top.Trace != parent.Trace ||
				top.Parent != parent.Span || top.ID != r.Context().Span ||
				top.Class != tc.class.String() || top.Err != tc.detail ||
				!near(time.Duration(top.Duration).Seconds(), ev.Duration) {
				t.Fatalf("parent span = %+v", top)
			}
			for i, s := range got[:len(got)-1] {
				if s.Phase != ev.Phases[i].Name || s.Parent != top.ID || s.Trace != top.Trace ||
					!near(time.Duration(s.Duration).Seconds(), ev.Phases[i].Secs) {
					t.Fatalf("child %d = %+v, want phase %+v under %v", i, s, ev.Phases[i], top.ID)
				}
				wantClass, wantErr := "ok", ""
				if i == len(tc.phases)-1 && died(tc.class) {
					wantClass, wantErr = tc.class.String(), tc.detail
				}
				if s.Class != wantClass || s.Err != wantErr {
					t.Fatalf("child %d (%s) class %q err %q, want %q %q", i, s.Phase, s.Class, s.Err, wantClass, wantErr)
				}
			}

			// Latency exemplar and health fold: same elapsed time, class
			// and trace as the wide event.
			h := lat.Snapshot()
			if h.Total != 1 || !near(h.Sum, ev.Duration) {
				t.Fatalf("latency total %d sum %v, want one observation of %v", h.Total, h.Sum, ev.Duration)
			}
			if ex, ok := h.ExemplarNear(0.5); !ok || ex.Trace != parent.Trace || !near(ex.Value, ev.Duration) {
				t.Fatalf("exemplar = %+v, %v", ex, ok)
			}
			ph, ok := mon.PathHealth("r1")
			if !ok {
				t.Fatal("health fold missing")
			}
			wantOk, wantFailed := int64(0), int64(1)
			if tc.class == obs.ClassOK {
				wantOk, wantFailed = 1, 0
			}
			if ph.Ok != wantOk || ph.Failed != wantFailed || (wantOk == 1 && ph.Bytes != 1000) {
				t.Fatalf("health = %+v, want ok=%d failed=%d", ph, wantOk, wantFailed)
			}

		})
	}
}

func near(a, b float64) bool { d := a - b; return d < 1e-9 && d > -1e-9 }

// TestRecordWithoutTraceContext: with no incoming trace and a store that
// does not trace, nothing invents one — the event and the exemplar stay
// unlinked; with a tracing store, the fresh root trace links the row, its
// span and the exemplar.
func TestRecordWithoutTraceContext(t *testing.T) {
	rec := NewRecorder(4, false)
	var r Record
	r.Start(Spec{Flight: rec, Service: "relay", Path: "up"})
	if r.Tracing() || r.Context().Valid() {
		t.Fatal("record on a store that does not trace claims a span context")
	}
	r.Finish()
	if ev := rec.Events(Filter{})[0]; ev.Trace != "" {
		t.Fatalf("event invented trace %q", ev.Trace)
	}

	if rec.Spans() != nil {
		t.Fatal("a store that does not trace derived spans")
	}
	store := NewRecorder(4, true)
	var lat obs.LatencyRecorder
	var traced Record
	traced.Start(Spec{Flight: store, Latency: &lat, Service: "relay", Phase: "forward", Path: "up"})
	root := traced.Context()
	if !traced.Tracing() || !root.Valid() {
		t.Fatal("record on a tracing store has no span context")
	}
	traced.Finish()
	ev := store.Events(Filter{N: 1})[0]
	sp := store.Spans()
	if len(sp) != 1 || !sp[0].Parent.IsZero() || sp[0].Trace != root.Trace || ev.Trace != root.Trace.String() {
		t.Fatalf("root span %+v, event trace %q, want trace %v", sp, ev.Trace, root.Trace)
	}
	if ex, ok := lat.Snapshot().ExemplarNear(0.5); !ok || ex.Trace != root.Trace {
		t.Fatalf("exemplar = %+v, %v", ex, ok)
	}
}

// TestRecordPhaseContext: a phase's span ID is minted when the phase
// opens and is the ID Finish writes, so work started under the phase's
// context — the engine's probes under "race" — stitches beneath it, and
// work started after Phase("") closed it hangs off the record's own span.
// A phase closed before the record died is not where it died.
func TestRecordPhaseContext(t *testing.T) {
	advance := scriptClock(t)
	spans := NewRecorder(32, true)
	child := func(parent obs.SpanContext, path string) {
		var c Record
		c.Start(Spec{Flight: spans, Service: "client", Phase: "transfer", Parent: parent})
		c.SetAttr("path", path)
		c.Finish()
	}

	var r Record
	r.Start(Spec{Flight: spans, Service: "client", Phase: "select"})
	if r.PhaseContext().Valid() {
		t.Fatal("phase context before any phase opened")
	}
	r.Phase("race")
	race := r.PhaseContext()
	if !race.Valid() || race.Trace != r.Context().Trace || race.Span == r.Context().Span {
		t.Fatalf("race context %+v under record %+v", race, r.Context())
	}
	child(race, "probe")
	advance(30 * time.Millisecond)
	if again := r.PhaseContext(); again != race {
		t.Fatalf("phase context moved while the phase was open: %+v then %+v", race, again)
	}
	r.Phase("")
	if r.PhaseContext().Valid() {
		t.Fatal("phase context after the phase closed")
	}
	child(r.Context(), "remainder")
	advance(70 * time.Millisecond)
	r.Outcome(obs.ClassFailed, "remainder reset")
	r.Finish()

	roots := obs.StitchTrace(race.Trace, spans.Spans())
	if len(roots) != 1 || roots[0].Span.Phase != "select" || roots[0].Span.Class != "failed" ||
		roots[0].Span.Duration != int64(100*time.Millisecond) {
		t.Fatalf("stitched roots = %+v", roots)
	}
	under := map[string]string{} // transfer path attr -> parent phase
	roots[0].Walk(func(n *obs.TraceNode, depth int) {
		for _, c := range n.Children {
			if c.Span.Phase == "transfer" {
				under[c.Span.Attrs["path"]] = n.Span.Phase
			}
		}
		if n.Span.Phase == "race" && (n.Span.ID != race.Span || n.Span.Class != "ok" ||
			n.Span.Duration != int64(30*time.Millisecond)) {
			t.Fatalf("race span = %+v, want id %v, ok, 30ms", n.Span, race.Span)
		}
	})
	if under["probe"] != "race" || under["remainder"] != "select" {
		t.Fatalf("transfer parents = %v, want probe under race, remainder under select", under)
	}
}

// TestDisabledRecordAllocatesNothing pins "disabled means free": with no
// sink attached a whole record lifecycle stays on the stack and reads no
// clock, and with only the sinks relay and origin always carry it still
// allocates nothing.
func TestDisabledRecordAllocatesNothing(t *testing.T) {
	lifecycle := func(s Spec) func() {
		return func() {
			var r Record
			r.Start(s)
			r.SetAttr("target", "x")
			r.FoldKey("up")
			r.SetCache("miss")
			r.Phase("dial")
			r.PhaseAttr("addr", "up")
			if r.PhaseContext().Valid() {
				panic("a record collecting no spans handed out a phase context")
			}
			r.Retry()
			r.Phase("")
			r.Phase("stream")
			r.AddBytes(1 << 20)
			r.Overlap("verify", time.Time{}, nil)
			r.Outcome(obs.ClassFailed, "reset")
			r.Finish()
		}
	}
	reads := 0
	clock = func() time.Time { reads++; return time.Now() }
	t.Cleanup(func() { clock = time.Now })
	if n := testing.AllocsPerRun(200, lifecycle(Spec{})); n != 0 {
		t.Fatalf("record with nothing attached: %v allocs per transfer, want 0", n)
	}
	if reads != 0 {
		t.Fatalf("record with nothing attached read the clock %d times, want 0", reads)
	}
	var lat obs.LatencyRecorder
	mon := obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})
	lifecycle(Spec{Latency: &lat, Health: mon})() // warm the monitor's path entry
	if n := testing.AllocsPerRun(200, lifecycle(Spec{Latency: &lat, Health: mon})); n != 0 {
		t.Fatalf("record feeding only latency+health: %v allocs per transfer, want 0", n)
	}
}
