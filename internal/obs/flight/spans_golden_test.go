package flight_test

import (
	"bytes"
	"flag"
	"os"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/traceio"
)

var update = flag.Bool("update", false, "rewrite testdata/record_spans.golden from the spans in the tree")

// TestRecordSpansGolden pins the span archive three scripted records
// leave behind — a relay forward, a client transfer with a verify
// overlap, and a transfer that dies mid-stream — byte for byte, with
// the random IDs renumbered in first-seen order.
func TestRecordSpansGolden(t *testing.T) {
	advance := flight.ScriptClock(t)
	ms := time.Millisecond
	spans := flight.NewRecorder(8, true)

	// A relay forward continuing a client's trace.
	var fwd flight.Record
	fwd.Start(flight.Spec{Flight: spans, Service: "relay", Phase: "forward", Path: "up:80", Object: "obj.bin",
		Parent: obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}})
	fwd.SetAttr("target", "http://up:80/obj.bin")
	fwd.SetCache("miss")
	fwd.Phase("dial")
	fwd.PhaseAttr("addr", "up:80")
	advance(2 * ms)
	fwd.Phase("ttfb")
	advance(3 * ms)
	fwd.Phase("stream")
	advance(40 * ms)
	fwd.StoreBytes(131072)
	fwd.Finish()

	// A warm client transfer whose stream ran a verifier alongside.
	advance(ms)
	var xfer flight.Record
	xfer.Start(flight.Spec{Flight: spans, Service: "client", Phase: "transfer", Path: "r1", Object: "obj.bin", Warm: true})
	xfer.SetAttr("path", "r1")
	xfer.Phase("ttfb")
	advance(ms)
	xfer.Phase("stream")
	verifyStart := time.Unix(1_700_000_000, 0).Add(47 * ms)
	advance(20 * ms)
	xfer.Overlap("verify", verifyStart, map[string]string{"bytes": "131072"})
	xfer.Finish()

	// A transfer that dies mid-stream.
	advance(ms)
	var dead flight.Record
	dead.Start(flight.Spec{Flight: spans, Service: "client", Phase: "transfer", Path: "direct", Object: "obj.bin"})
	dead.Phase("dial")
	advance(ms)
	dead.Phase("ttfb")
	advance(2 * ms)
	dead.Phase("stream")
	advance(5 * ms)
	dead.Outcome(obs.ClassFailed, "connection reset by peer")
	dead.Finish()

	var buf bytes.Buffer
	if err := traceio.WriteSpans(&buf, "record golden", renumber(spans.Spans())); err != nil {
		t.Fatal(err)
	}
	const golden = "testdata/record_spans.golden"
	if *update {
		if err := os.WriteFile(golden, buf.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), want) {
		t.Fatalf("span archive differs from %s:\n got:\n%s\nwant:\n%s", golden, buf.Bytes(), want)
	}
}

// renumber replaces every trace and span ID with its first-seen ordinal,
// so the archive's bytes do not depend on the random IDs minted.
func renumber(spans []obs.Span) []obs.Span {
	traces := map[obs.TraceID]obs.TraceID{}
	ids := map[obs.SpanID]obs.SpanID{}
	trace := func(id obs.TraceID) obs.TraceID {
		if id.IsZero() {
			return id
		}
		if _, ok := traces[id]; !ok {
			var n obs.TraceID
			n[15] = byte(len(traces) + 1)
			traces[id] = n
		}
		return traces[id]
	}
	span := func(id obs.SpanID) obs.SpanID {
		if id.IsZero() {
			return id
		}
		if _, ok := ids[id]; !ok {
			var n obs.SpanID
			n[7] = byte(len(ids) + 1)
			ids[id] = n
		}
		return ids[id]
	}
	out := make([]obs.Span, len(spans))
	for i, s := range spans {
		s.Trace, s.ID, s.Parent = trace(s.Trace), span(s.ID), span(s.Parent)
		out[i] = s
	}
	return out
}
