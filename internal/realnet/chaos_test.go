package realnet

import (
	"bufio"
	"errors"
	"net"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// Regression tests for the stale-pooled-connection bugs the chaos sweep
// surfaced: a parked keep-alive connection killed (or half-opened) by
// the network between requests used to surface as a spurious
// ErrProbeTimeout on the next warm fetch instead of the free fresh-dial
// fallback, and a deadline left armed by a previous transfer could cut a
// later, lazier warm fetch short.

// TestWarmFetchSurvivesSeveredPool kills the parked connection between
// requests — the origin's end RSTs, the classic NAT/middlebox reap — and
// checks the next warm fetch falls back to a fresh dial cleanly: no
// error, and in particular no ErrProbeTimeout charged to a path that is
// perfectly healthy. Whether the RST has reached the client's socket
// when the warm fetch starts or lands under it, the outcome is the same.
func TestWarmFetchSurvivesSeveredPool(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("obj.bin", 1<<20)
	ln, err := shaper.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go origin.Serve(ln)

	tr := &Transport{
		Servers: map[string]string{"origin": ln.Addr().String()},
		Verify:  true,
	}
	defer tr.Close()
	obj := core.Object{Server: "origin", Name: "obj.bin", Size: 1 << 20}

	h := tr.Start(obj, core.Path{}, 0, 64<<10)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatalf("cold fetch: %v", err)
	}

	// The transfer parked its connection; sever it under the pool.
	ln.Sever()

	h2 := tr.StartWarm(obj, core.Path{}, 64<<10, 64<<10)
	tr.Wait(h2)
	if err := h2.Result().Err; err != nil {
		if errors.Is(err, core.ErrProbeTimeout) {
			t.Fatalf("severed pooled conn classified as probe timeout: %v", err)
		}
		t.Fatalf("warm fetch after sever: %v", err)
	}
	if st := tr.PoolStats(); st.Reuses != 1 {
		t.Fatalf("pool reuses = %d, want 1 (the severed conn must still be tried warm)", st.Reuses)
	}
	if got := ln.Accepted(); got != 2 {
		t.Fatalf("origin accepted %d conns, want 2 (fallback must redial)", got)
	}
}

// TestWarmFetchClearsLingeringDeadline parks a connection that still has
// an (expired) transfer deadline armed — exactly what a parked conn
// looked like when a park site skipped the deadline clear — and checks a
// warm fetch with no deadline of its own rides it successfully. The old
// loop only touched the conn deadline when its own ctx had one, so the
// leftover expiry fired on the first read and surfaced as a spurious
// ErrProbeTimeout.
func TestWarmFetchClearsLingeringDeadline(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("obj.bin", 1<<20)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Verify:  true,
	}
	defer tr.Close()
	obj := core.Object{Server: "origin", Name: "obj.bin", Size: 1 << 20}

	// Hand-park a healthy connection with a deadline already in the past.
	conn, err := net.Dial("tcp", ol.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(-time.Second))
	tr.idlePool().park(pathKey(core.Path{}), &pooledConn{conn: conn, br: bufio.NewReader(conn)})

	h := tr.StartWarm(obj, core.Path{}, 0, 64<<10)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatalf("warm fetch inherited a stale deadline: %v", err)
	}
	if st := tr.PoolStats(); st.Reuses != 1 {
		t.Fatalf("pool reuses = %d, want 1 (the parked conn was healthy)", st.Reuses)
	}
	if got := origin.Conns.Load(); got != 1 {
		t.Fatalf("origin accepted %d conns, want 1 (no redial needed)", got)
	}
}

// TestWarmFetchSurvivesDeadPooledConn parks a connection that is
// already closed — the sharpest form of staleness, where even arming a
// deadline fails — and checks the warm fetch falls straight back to a
// fresh dial instead of surfacing the socket error (or worse, writing
// into a dead conn and misclassifying the fallout as a probe timeout).
func TestWarmFetchSurvivesDeadPooledConn(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("obj.bin", 1<<20)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Verify:  true,
	}
	defer tr.Close()
	obj := core.Object{Server: "origin", Name: "obj.bin", Size: 1 << 20}

	conn, err := net.Dial("tcp", ol.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn.Close()
	tr.idlePool().park(pathKey(core.Path{}), &pooledConn{conn: conn, br: bufio.NewReader(conn)})

	h := tr.StartWarm(obj, core.Path{}, 0, 64<<10)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatalf("warm fetch on a closed pooled conn: %v", err)
	}
	if errors.Is(h.Result().Err, core.ErrProbeTimeout) {
		t.Fatal("closed pooled conn classified as probe timeout")
	}
}
