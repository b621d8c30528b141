package realnet

import (
	"fmt"
	"net"
	"sync/atomic"
	"testing"

	"repro/internal/core"
	"repro/internal/obs/flight"
	"repro/internal/relay"
)

// fetchOnce runs one whole transfer through tr and fails the test on a
// transfer error.
func fetchOnce(t *testing.T, tr *Transport, obj core.Object) {
	t.Helper()
	h := tr.Start(obj, core.Path{}, 0, obj.Size)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatalf("transfer failed: %v", err)
	}
}

// TestFlightWideEventOnFetch asserts the client-side wide event carries
// the full investigation row: path key matching the health fold key,
// phase durations for the transfer's real stages, delivered bytes,
// outcome class, and the trace ID linking it to the span timeline.
func TestFlightWideEventOnFetch(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("obj.bin", 100_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	rec := flight.NewRecorder(16, true)
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Flight:  rec,
	}
	obj := core.Object{Server: "origin", Name: "obj.bin", Size: 100_000}
	fetchOnce(t, tr, obj)

	evs := rec.Events(flight.Filter{})
	if len(evs) != 1 {
		t.Fatalf("recorded %d wide events, want 1", len(evs))
	}
	ev := evs[0]
	if ev.Service != "client" || ev.Path != "direct" || ev.Object != "obj.bin" {
		t.Fatalf("event identity = %+v", ev)
	}
	if ev.Class != "ok" || ev.Err != "" {
		t.Fatalf("event outcome = %q/%q, want ok", ev.Class, ev.Err)
	}
	if ev.Bytes != 100_000 {
		t.Fatalf("event bytes = %d, want 100000", ev.Bytes)
	}
	if ev.Duration <= 0 {
		t.Fatalf("event duration = %v", ev.Duration)
	}
	phases := map[string]bool{}
	for _, p := range ev.Phases {
		if p.Secs < 0 {
			t.Fatalf("negative phase duration: %+v", ev.Phases)
		}
		phases[p.Name] = true
	}
	for _, want := range []string{"dial", "request-write", "ttfb", "stream"} {
		if !phases[want] {
			t.Fatalf("phases %v missing %q", ev.Phases, want)
		}
	}
	if ev.Trace == "" {
		t.Fatal("event carries no trace ID despite tracing on")
	}
	// The trace ID must resolve into the spans the row carries.
	found := false
	for _, s := range rec.Spans() {
		if s.Trace.String() == ev.Trace {
			found = true
			break
		}
	}
	if !found {
		t.Fatalf("event trace %q matches no recorded span", ev.Trace)
	}
	// The transfer is finished, so the active table is empty.
	if act := rec.Active(); len(act) != 0 {
		t.Fatalf("active table after finish: %+v", act)
	}
}

// TestFlightEventRecordsRetriesAndWarm asserts the retry counter and
// the warm (pooled-connection) flag land on the wide event.
func TestFlightEventRecordsRetriesAndWarm(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("obj.bin", 50_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	var dials atomic.Int64
	flaky := func(network, addr string) (net.Conn, error) {
		if dials.Add(1) <= 2 {
			return nil, fmt.Errorf("transient dial failure")
		}
		return net.Dial(network, addr)
	}
	rec := flight.NewRecorder(16, false)
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Dial:    flaky,
		Flight:  rec,
	}
	obj := core.Object{Server: "origin", Name: "obj.bin", Size: 50_000}
	fetchOnce(t, tr, obj)
	evs := rec.Events(flight.Filter{})
	if len(evs) != 1 || evs[0].Retries != 2 {
		t.Fatalf("events = %+v, want one with 2 retries", evs)
	}
	if evs[0].Warm {
		t.Fatalf("cold fetch marked warm: %+v", evs[0])
	}

	// A warm continuation reuses the pooled connection: marked warm, no
	// retries.
	h := tr.StartWarm(obj, core.Path{}, 0, obj.Size)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatalf("warm fetch failed: %v", err)
	}
	evs = rec.Events(flight.Filter{N: 1})
	if len(evs) != 1 || !evs[0].Warm || evs[0].Retries != 0 {
		t.Fatalf("warm fetch event = %+v", evs)
	}
}

// TestFlightEventOnFailure asserts a failing transfer records its error
// class and detail.
func TestFlightEventOnFailure(t *testing.T) {
	rec := flight.NewRecorder(16, false)
	tr := &Transport{
		Servers: map[string]string{"origin": "127.0.0.1:1"}, // nothing listens
		Flight:  rec,
	}
	obj := core.Object{Server: "origin", Name: "obj.bin", Size: 1000}
	h := tr.Start(obj, core.Path{}, 0, 1000)
	tr.Wait(h)
	if h.Result().Err == nil {
		t.Fatal("fetch from a dead origin succeeded")
	}
	evs := rec.Events(flight.Filter{})
	if len(evs) != 1 {
		t.Fatalf("events = %+v", evs)
	}
	if evs[0].Class == "ok" || evs[0].Err == "" {
		t.Fatalf("failure event = %+v, want class+detail", evs[0])
	}
}
