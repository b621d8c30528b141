package relay

import (
	"bufio"
	"io"
	"net"
	"strconv"
	"testing"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// captureOrigin is a one-request fake origin that records the headers it
// receives and answers with a tiny valid response, so tests can observe
// exactly what crossed the relay hop.
func captureOrigin(t *testing.T) (addr string, got chan map[string]string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	got = make(chan map[string]string, 1)
	go func() {
		conn, err := l.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		req, err := httpx.ReadRequest(bufio.NewReader(conn))
		if err != nil {
			return
		}
		got <- req.Header
		body := []byte("ok")
		httpx.WriteResponseHead(conn, 200, "OK",
			map[string]string{"content-length": strconv.Itoa(len(body))})
		conn.Write(body)
	}()
	return l.Addr().String(), got
}

// fetchWithHeaders issues one GET through the relay with extra request
// headers and drains the response.
func fetchWithHeaders(t *testing.T, relayAddr, originAddr string, hdr map[string]string) {
	t.Helper()
	conn, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := httpx.NewGet("http://"+originAddr+"/x", originAddr)
	for k, v := range hdr {
		req.Header[k] = v
	}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
}

// TestRelayForwardsExtensionHeaders is the regression test for the
// header-forwarding fix: the relay used to copy only the range and
// connection headers upstream, silently dropping x-trace and any future
// extension header. Every "x-*" header must now cross the hop verbatim.
func TestRelayForwardsExtensionHeaders(t *testing.T) {
	originAddr, got := captureOrigin(t)
	_, relayAddr := startRelay(t)

	trace := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}.Header()
	fetchWithHeaders(t, relayAddr, originAddr, map[string]string{
		obs.TraceHeader: trace,
		"x-custom":      "survives",
		"accept":        "should-not-cross", // non-extension, not forwarded
	})

	hdr := <-got
	if hdr["x-custom"] != "survives" {
		t.Fatalf("x-custom did not cross the relay: %v", hdr)
	}
	// With relay tracing off, the client's trace context passes through
	// untouched, so the origin can still join the client's trace.
	if hdr[obs.TraceHeader] != trace {
		t.Fatalf("x-trace = %q, want pass-through %q", hdr[obs.TraceHeader], trace)
	}
	if hdr["accept"] != "" {
		t.Fatal("relay forwarded a non-extension header")
	}
}

// TestRelayRewritesTraceWhenTracing: with tracing on, the relay's forward
// span continues the client's trace and the upstream request carries the
// forward span's context, so the origin's serve span nests under the relay
// hop rather than beside it.
func TestRelayRewritesTraceWhenTracing(t *testing.T) {
	originAddr, got := captureOrigin(t)
	spans := flight.NewRecorder(16, true)
	r := New(WithFlight(spans))
	l, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	client := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	fetchWithHeaders(t, l.Addr().String(), originAddr, map[string]string{
		obs.TraceHeader: client.Header(),
	})

	hdr := <-got
	r.WaitIdle() // the forward span lands at the record's Finish
	up, ok := obs.ParseTraceHeader(hdr[obs.TraceHeader])
	if !ok {
		t.Fatalf("upstream x-trace unparseable: %q", hdr[obs.TraceHeader])
	}
	if up.Trace != client.Trace {
		t.Fatal("relay did not continue the client's trace")
	}
	if up.Span == client.Span {
		t.Fatal("relay forwarded the client's span ID instead of its own")
	}

	var fwd *obs.Span
	for _, s := range spans.Spans() {
		if s.Phase == "forward" {
			fwd = &s
			break
		}
	}
	if fwd == nil {
		t.Fatal("no forward span recorded")
	}
	if fwd.Trace != client.Trace || fwd.Parent != client.Span {
		t.Fatalf("forward span not parented on the client span: %+v", fwd)
	}
	if fwd.ID != up.Span {
		t.Fatal("upstream x-trace does not name the forward span")
	}
	if fwd.Service != "relay" || fwd.Class != "ok" {
		t.Fatalf("forward span fields: %+v", fwd)
	}
}

// TestRelaySpanPhases: one traced relayed fetch records the full
// server-side phase set with the children parented on the forward span.
func TestRelaySpanPhases(t *testing.T) {
	_, originAddr := startOrigin(t)
	spans := flight.NewRecorder(16, true)
	r := New(WithFlight(spans))
	l, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })

	body, err := FetchVia(nil, l.Addr().String(), originAddr, "big.bin", 0, 4096)
	if err != nil || len(body) != 4096 {
		t.Fatalf("fetch: %d bytes, %v", len(body), err)
	}
	r.WaitIdle()

	byPhase := map[string]obs.Span{}
	for _, s := range spans.Spans() {
		byPhase[s.Phase] = s
	}
	fwd, ok := byPhase["forward"]
	if !ok {
		t.Fatalf("no forward span: %v", byPhase)
	}
	for _, phase := range []string{"dial", "ttfb", "stream"} {
		child, ok := byPhase[phase]
		if !ok {
			t.Fatalf("missing %s span", phase)
		}
		if child.Parent != fwd.ID || child.Trace != fwd.Trace {
			t.Fatalf("%s span not a child of forward", phase)
		}
		if child.Class != "ok" {
			t.Fatalf("%s span class = %q", phase, child.Class)
		}
	}
	if fwd.Attrs["status"] != "206" {
		t.Fatalf("forward status attr = %q", fwd.Attrs["status"])
	}
	if byPhase["stream"].Attrs["bytes"] != "4096" {
		t.Fatalf("stream bytes attr = %q", byPhase["stream"].Attrs["bytes"])
	}
	// An untraced client request roots a fresh trace rather than failing.
	if fwd.Parent.IsZero() == false {
		t.Fatalf("untraced request should root a fresh trace: parent %v", fwd.Parent)
	}
}
