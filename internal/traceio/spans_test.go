package traceio

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"repro/internal/obs"
)

func sampleSpans() []obs.Span {
	root := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	return []obs.Span{
		{Trace: root.Trace, ID: obs.NewSpanID(), Parent: root.Span, Service: "client", Phase: "transfer",
			Class: obs.ClassCanceled.String(), Err: "context canceled", Attrs: map[string]string{"path": "r1"}},
		{Trace: root.Trace, ID: root.Span, Service: "client", Phase: "select", Class: obs.ClassOK.String()},
	}
}

func TestSpansRoundTrip(t *testing.T) {
	spans := sampleSpans()
	var buf bytes.Buffer
	if err := WriteSpans(&buf, "relayd 127.0.0.1:8081", spans); err != nil {
		t.Fatal(err)
	}
	got, comment, err := ReadSpans(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if comment != "relayd 127.0.0.1:8081" {
		t.Fatalf("comment = %q", comment)
	}
	if len(got) != len(spans) {
		t.Fatalf("got %d spans, want %d", len(got), len(spans))
	}
	for i := range got {
		if got[i].Trace != spans[i].Trace || got[i].ID != spans[i].ID ||
			got[i].Parent != spans[i].Parent {
			t.Fatalf("span %d IDs changed: %+v vs %+v", i, got[i], spans[i])
		}
		if got[i].Class != spans[i].Class || got[i].Err != spans[i].Err {
			t.Fatalf("span %d outcome changed", i)
		}
	}
	// Spans land in arrival order, so the transfer child is first.
	if got[0].Attrs["path"] != "r1" {
		t.Fatal("attrs did not survive")
	}
}

func TestSpansEmptyArchive(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteSpans(&buf, "idle origind", nil); err != nil {
		t.Fatal(err)
	}
	got, comment, err := ReadSpans(&buf)
	if err != nil || len(got) != 0 || comment != "idle origind" {
		t.Fatalf("empty archive: %d spans, %q, %v", len(got), comment, err)
	}
}

func TestReadSpansRejectsWrongKind(t *testing.T) {
	// A record archive is not a span archive; the kind field keeps the
	// two JSONL dialects from being confused.
	var buf bytes.Buffer
	if err := Write(&buf, "records", nil); err != nil {
		t.Fatal(err)
	}
	if _, _, err := ReadSpans(&buf); !errors.Is(err, ErrBadSchema) {
		t.Fatalf("err = %v, want ErrBadSchema", err)
	}
	if _, _, err := ReadSpans(strings.NewReader("not json")); !errors.Is(err, ErrBadHeader) {
		t.Fatalf("err = %v, want ErrBadHeader", err)
	}
}
