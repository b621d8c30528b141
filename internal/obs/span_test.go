package obs

import (
	"context"
	"encoding/json"
	"strings"
	"testing"
)

func TestTraceHeaderRoundTrip(t *testing.T) {
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	h := sc.Header()
	if len(h) != headerLen {
		t.Fatalf("header length = %d, want %d", len(h), headerLen)
	}
	got, ok := ParseTraceHeader(h)
	if !ok || got != sc {
		t.Fatalf("round trip: got %+v ok=%v, want %+v", got, ok, sc)
	}
}

func TestParseTraceHeaderRejectsMalformed(t *testing.T) {
	valid := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}.Header()
	bad := []string{
		"",
		"x",
		valid[:len(valid)-1],                // truncated
		valid + "0",                         // oversized
		strings.Replace(valid, "-", "_", 1), // wrong separator
		strings.Repeat("g", headerLen),      // non-hex
		valid[:32] + "-" + strings.Repeat("z", 16), // non-hex span
		strings.Repeat("0", 32) + "-" + valid[33:], // zero trace ID
		valid[:32] + "-" + strings.Repeat("0", 16), // zero span ID
	}
	for _, v := range bad {
		if sc, ok := ParseTraceHeader(v); ok {
			t.Fatalf("ParseTraceHeader(%q) accepted: %+v", v, sc)
		} else if (sc != SpanContext{}) {
			t.Fatalf("ParseTraceHeader(%q) returned non-zero context on failure", v)
		}
	}
}

// FuzzParseTraceHeader is the satellite contract: no header value —
// malformed, truncated, oversized, binary garbage — may parse into a
// valid context unless it is the exact wire form, and a rejected value
// must yield the zero context (callers start a fresh trace, never fail).
func FuzzParseTraceHeader(f *testing.F) {
	f.Add("")
	f.Add(SpanContext{Trace: NewTraceID(), Span: NewSpanID()}.Header())
	f.Add(strings.Repeat("0", headerLen))
	f.Add(strings.Repeat("f", 32) + "-" + strings.Repeat("f", 16))
	f.Add(strings.Repeat("f", 200))
	f.Add("deadbeef-cafe")
	f.Add("\x00\xff-trace")
	f.Fuzz(func(t *testing.T, v string) {
		sc, ok := ParseTraceHeader(v)
		if !ok {
			if (sc != SpanContext{}) {
				t.Fatalf("rejected %q but returned non-zero context %+v", v, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q but context invalid", v)
		}
		if sc.Header() != v {
			t.Fatalf("accepted %q but re-rendering gives %q", v, sc.Header())
		}
	})
}

func TestSpanContextThroughContext(t *testing.T) {
	if _, ok := SpanFromContext(context.Background()); ok {
		t.Fatal("empty context reported a span")
	}
	sc := SpanContext{Trace: NewTraceID(), Span: NewSpanID()}
	ctx := ContextWithSpan(context.Background(), sc)
	got, ok := SpanFromContext(ctx)
	if !ok || got != sc {
		t.Fatalf("context round trip: %+v ok=%v", got, ok)
	}
	// An invalid stored context reads back as absent.
	if _, ok := SpanFromContext(ContextWithSpan(context.Background(), SpanContext{})); ok {
		t.Fatal("invalid span context reported present")
	}
}

func TestSpanJSONRoundTrip(t *testing.T) {
	orig := Span{Trace: NewTraceID(), ID: NewSpanID(), Service: "relay", Phase: "forward",
		Class: ClassOK.String(), Attrs: map[string]string{"target": "http://o/x"}}
	b, err := json.Marshal(orig)
	if err != nil {
		t.Fatal(err)
	}
	var back Span
	if err := json.Unmarshal(b, &back); err != nil {
		t.Fatal(err)
	}
	if back.Trace != orig.Trace || back.ID != orig.ID || back.Parent != orig.Parent {
		t.Fatal("IDs did not survive JSON")
	}
	if back.Attrs["target"] != "http://o/x" || back.Class != "ok" {
		t.Fatalf("fields did not survive JSON: %+v", back)
	}
	// A root's zero parent renders as "" and unmarshals back to zero.
	if !strings.Contains(string(b), `"parent":""`) {
		t.Fatalf("zero parent not rendered empty: %s", b)
	}
	// Foreign or corrupt IDs degrade to zero instead of failing the load.
	var tolerant Span
	if err := json.Unmarshal([]byte(`{"trace":"zz","span":"123"}`), &tolerant); err != nil {
		t.Fatalf("corrupt IDs should not fail: %v", err)
	}
	if !tolerant.Trace.IsZero() || !tolerant.ID.IsZero() {
		t.Fatal("corrupt IDs should degrade to zero")
	}
}
