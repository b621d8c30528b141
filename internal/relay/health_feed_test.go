package relay

import (
	"bufio"
	"io"
	"net"
	"testing"

	"repro/internal/httpx"
	"repro/internal/obs"
)

// foldedHealth waits for the relay to finish every request it is in the
// middle of (the health fold lands at the record's Finish, after the
// response is written) and returns the monitor's view of the upstream.
func foldedHealth(t *testing.T, r *Relay, m *obs.HealthMonitor, key string) obs.PathHealth {
	t.Helper()
	r.WaitIdle()
	ph, ok := m.PathHealth(key)
	if !ok {
		t.Fatalf("no health recorded for %q", key)
	}
	return ph
}

// TestClientDisconnectIsNotPathFailure pins the health-feed
// classification: a downstream client hanging up mid-response — which
// happens on every reaped losing probe — must not count as a failure of
// the upstream path. Only upstream trouble (e.g. a dead origin) may.
func TestClientDisconnectIsNotPathFailure(t *testing.T) {
	origin := NewOriginServer()
	origin.Put("big.bin", 8<<20)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	up := ol.Addr().String()

	r := &Relay{Health: obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})}
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	// A client that requests the whole object, reads the head plus a
	// little body, then slams the connection — a reaped loser.
	conn, err := net.Dial("tcp", rl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	req := httpx.NewGet("http://"+up+"/big.bin", up)
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	// The disconnect folds as canceled: not a sample, so the path has no
	// entry at all — nothing for the relay's self-reported health to
	// average in.
	r.WaitIdle()
	if ph, ok := r.Health.PathHealth(up); ok {
		t.Fatalf("client disconnect left a health entry: %+v", ph)
	}

	// A complete fetch is a real (successful) sample.
	if _, err := FetchVia(nil, rl.Addr().String(), up, "big.bin", 0, 4096); err != nil {
		t.Fatal(err)
	}
	ph := foldedHealth(t, r, r.Health, up)
	if ph.Ok != 1 || ph.Failed != 0 || ph.State != obs.HealthHealthy {
		t.Fatalf("successful fetch: %+v, want 1 ok / healthy", ph)
	}

	// Upstream death, by contrast, is the path's fault.
	ol.Close()
	if _, err := FetchVia(nil, rl.Addr().String(), up, "big.bin", 0, 4096); err == nil {
		t.Fatal("fetch through dead origin succeeded")
	}
	ph = foldedHealth(t, r, r.Health, up)
	if ph.Failed != 1 || ph.Ok != 1 {
		t.Fatalf("after upstream death: %+v, want the earlier ok preserved", ph)
	}
}

// TestOriginClientHangUpIsNotObjectFailure is the origin's side of the
// same classification: a client that reads part of a large body and
// hangs up fails the origin's body write, and that must not count as a
// failure of the object, or every abandoned fetch would walk its health
// toward down.
func TestOriginClientHangUpIsNotObjectFailure(t *testing.T) {
	origin := NewOriginServer(WithHealthMonitor(obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})))
	origin.Put("big.bin", 64<<20) // far more than the socket buffers hold
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	conn, err := net.Dial("tcp", ol.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if err := httpx.NewGet("/big.bin", ol.Addr().String()).Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	conn.Close()

	origin.WaitIdle()
	if ph, ok := origin.Health.PathHealth("big.bin"); ok && ph.Failed != 0 {
		t.Fatalf("client hang-up folded as an object failure: %+v", ph)
	}

	// A complete fetch is still a real (successful) sample.
	if _, err := Fetch(nil, ol.Addr().String(), "big.bin", 0, 4096); err != nil {
		t.Fatal(err)
	}
	origin.WaitIdle()
	ph, ok := origin.Health.PathHealth("big.bin")
	if !ok || ph.Ok != 1 || ph.Failed != 0 {
		t.Fatalf("after one complete fetch: %+v (recorded %v), want 1 ok / 0 failed", ph, ok)
	}
}
