package relay

import (
	"bufio"
	"io"
	"net"
	"testing"

	"repro/internal/httpx"
	"repro/internal/obs/flight"
)

// TestRelayFlightWideEvents drives forwards through a caching relay and
// asserts the relay-side wide events: identity keyed by upstream
// address (the health monitor's fold key), cache disposition across
// miss → hit, forwarding phases, and the trace ID continued from the
// client's x-trace header.
func TestRelayFlightWideEvents(t *testing.T) {
	origin := NewOriginServer()
	origin.Put("obj.bin", 200_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	rec := flight.NewRecorder(16, true)
	r := New(
		WithCache(1<<20),
		WithVerifier(VerifyRange),
		WithFlight(rec),
	)
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	upstream := ol.Addr().String()
	// First forward fills the cache (miss), second serves from it (hit).
	for i := 0; i < 2; i++ {
		if _, err := FetchVia(nil, rl.Addr().String(), upstream, "obj.bin", 0, 50_000); err != nil {
			t.Fatal(err)
		}
	}

	r.WaitIdle() // wide events and spans land at the record's Finish
	evs := rec.Events(flight.Filter{Path: upstream})
	if len(evs) != 2 {
		t.Fatalf("recorded %d wide events for upstream %s, want 2: %+v",
			len(evs), upstream, rec.Events(flight.Filter{}))
	}
	// Rows are in finish order, and the hit can finish first: its request
	// may be served the moment the first client holds its last byte,
	// while the miss's handler is still closing its record. Seq is start
	// order.
	hit, miss := evs[0], evs[1]
	if hit.Seq < miss.Seq {
		hit, miss = miss, hit
	}
	if miss.Cache != "miss" || hit.Cache != "hit" {
		t.Fatalf("cache dispositions = %q then %q, want miss then hit", miss.Cache, hit.Cache)
	}
	for _, ev := range evs {
		if ev.Service != "relay" || ev.Object != "obj.bin" || ev.Class != "ok" {
			t.Fatalf("event = %+v", ev)
		}
		if ev.Bytes != 50_000 {
			t.Fatalf("event bytes = %d, want 50000", ev.Bytes)
		}
		if ev.Trace == "" {
			t.Fatalf("relay event carries no trace: %+v", ev)
		}
	}
	// The miss forwarded upstream: dial/ttfb/stream phases exist.
	names := map[string]bool{}
	for _, p := range miss.Phases {
		names[p.Name] = true
	}
	for _, want := range []string{"dial", "ttfb", "stream"} {
		if !names[want] {
			t.Fatalf("miss phases %v missing %q", miss.Phases, want)
		}
	}
	// The hit never dialed.
	for _, p := range hit.Phases {
		if p.Name == "dial" {
			t.Fatalf("cache hit dialed upstream: %+v", hit.Phases)
		}
	}
	// The events' traces resolve into the spans their rows carry.
	for _, ev := range evs {
		found := false
		for _, s := range rec.Spans() {
			if s.Trace.String() == ev.Trace {
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("event trace %q matches no relay span", ev.Trace)
		}
	}
}

// TestRelayFlightEventOnFailure asserts a failing forward records its
// outcome class, and a malformed request still produces an event.
func TestRelayFlightEventOnFailure(t *testing.T) {
	origin := NewOriginServer()
	origin.Put("obj.bin", 1000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	rec := flight.NewRecorder(16, false)
	r := New(WithFlight(rec))
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	if _, err := FetchVia(nil, rl.Addr().String(), ol.Addr().String(), "missing.bin", 0, 10); err == nil {
		t.Fatal("forward of a missing object succeeded")
	}
	r.WaitIdle()
	evs := rec.Events(flight.Filter{Path: ol.Addr().String()})
	if len(evs) != 1 {
		t.Fatalf("events = %+v", rec.Events(flight.Filter{}))
	}
	if evs[0].Class == "ok" {
		t.Fatalf("failed forward recorded class ok: %+v", evs[0])
	}
	if evs[0].Object != "missing.bin" {
		t.Fatalf("event object = %q", evs[0].Object)
	}
}

// BenchmarkForwardRecorded prices the flight store on the forward path:
// a 128 KiB loopback forward on a kept client connection with no store,
// with a store, and with a tracing store. At steady state the ring is
// full, so every forward also overwrites a row.
func BenchmarkForwardRecorded(b *testing.B) {
	_, originAddr := startOrigin(b)
	const n = 128 << 10
	for _, tc := range []struct {
		name string
		rec  *flight.Recorder
	}{{"none", nil}, {"store", flight.NewRecorder(0, false)}, {"tracing", flight.NewRecorder(0, true)}} {
		b.Run(tc.name, func(b *testing.B) {
			l, err := New(WithFlight(tc.rec)).ServeAddr("127.0.0.1:0")
			if err != nil {
				b.Fatal(err)
			}
			defer l.Close()
			conn, err := net.Dial("tcp", l.Addr().String())
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			get := func() {
				req := httpx.NewGet("http://"+originAddr+"/big.bin", originAddr)
				delete(req.Header, "connection")
				req.SetRange(0, n)
				if err := req.Write(conn); err != nil {
					b.Fatal(err)
				}
				resp, err := httpx.ReadResponse(br)
				if err != nil {
					b.Fatal(err)
				}
				if got, err := io.Copy(io.Discard, resp.Body); err != nil || got != n {
					b.Fatalf("forward: %d of %d bytes, %v", got, n, err)
				}
			}
			// Fill the ring and, at ~10% slow roots, the tail rule's cap
			// of forced rows: the steady state overwrites and scans.
			for i := 0; i < 3000; i++ {
				get()
			}
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
		})
	}
}
