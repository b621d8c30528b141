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

	// The disconnect folds as canceled: not a sample, so the path stays
	// unknown with no failures on the books.
	ph := foldedHealth(t, r, r.Health, up)
	if ph.Failed != 0 {
		t.Fatalf("client disconnect counted as upstream failure: %+v", ph)
	}
	if ph.State != obs.HealthUnknown {
		t.Fatalf("state = %v after only a client disconnect, want unknown", ph.State)
	}

	// A complete fetch is a real (successful) sample.
	if _, err := FetchVia(nil, rl.Addr().String(), up, "big.bin", 0, 4096); err != nil {
		t.Fatal(err)
	}
	ph = foldedHealth(t, r, r.Health, up)
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
