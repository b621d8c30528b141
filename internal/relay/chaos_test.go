package relay

import (
	"bufio"
	"io"
	"net"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/shaper"
)

// Regression tests for the fault classes the chaos suite flushed out of
// the plain forwarding path: an origin that FINs mid-body used to be
// reported as success (the LimitReader surfaces the early close as a
// clean EOF), leaving the client hung on a keep-alive connection
// awaiting bytes that would never come, and folding a spurious OK into
// the relay's path health.

// chaosRelay serves an origin on a faulting listener, puts a relay in
// front of it, and returns the relay, its address, the origin's address
// (the health key), and the listener.
func chaosRelay(t *testing.T, objSize int64, faults []shaper.Fault, opts ...Option) (r *Relay, relayAddr, originAddr string, ln *shaper.Listener, mon *obs.HealthMonitor) {
	t.Helper()
	origin := NewOriginServer()
	origin.Put("obj.bin", objSize)
	ln, err := shaper.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ln.SetFaults(faults...)
	go origin.Serve(ln)
	originAddr = ln.Addr().String()

	mon = obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})
	r = New(append([]Option{WithHealthMonitor(mon)}, opts...)...)
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rl.Close() })
	return r, rl.Addr().String(), originAddr, ln, mon
}

// shortGet issues one whole-object GET through the relay with a hard
// client deadline and returns the declared length, the delivered body,
// the open connection, and how long the read took.
func shortGet(t *testing.T, relayAddr, originAddr, name string, deadline time.Duration) (clen int64, body []byte, conn net.Conn, elapsed time.Duration) {
	t.Helper()
	conn, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	conn.SetDeadline(time.Now().Add(deadline))
	req := httpx.NewGet("http://"+originAddr+"/"+name, originAddr)
	delete(req.Header, "connection") // keep-alive: pin the hang, not mask it
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	start := time.Now()
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatalf("response head: %v", err)
	}
	if resp.Status != 200 {
		t.Fatalf("status %d, want 200", resp.Status)
	}
	body, err = io.ReadAll(resp.Body)
	elapsed = time.Since(start)
	if ne, ok := err.(net.Error); ok && ne.Timeout() {
		t.Fatalf("client hung for %v on a truncated body (%d of %d bytes)",
			elapsed, len(body), resp.ContentLength)
	}
	return resp.ContentLength, body, conn, elapsed
}

func TestForwardShortUpstreamBody(t *testing.T) {
	const objSize = 64 << 10
	// The origin's FIN lands 8 KB into the response stream: a clean
	// early close, not a reset — exactly the case EOF semantics hide.
	r, relayAddr, originAddr, _, mon := chaosRelay(t, objSize,
		[]shaper.Fault{{At: 8192, Do: shaper.Close}})

	clen, body, conn, elapsed := shortGet(t, relayAddr, originAddr, "obj.bin", 5*time.Second)
	defer conn.Close()
	if clen != objSize {
		t.Fatalf("declared length %d, want %d", clen, objSize)
	}
	if int64(len(body)) >= objSize {
		t.Fatalf("got the whole object (%d bytes) through a truncating path", len(body))
	}
	if elapsed > 2*time.Second {
		t.Fatalf("short read took %v: client waited on a dead keep-alive conn", elapsed)
	}
	// The delivered prefix must be intact bytes of the object.
	if !VerifyRange("obj.bin", 0, body) {
		t.Fatal("delivered prefix corrupted")
	}

	// The relay must close the client connection after a truncated
	// forward: a second request on it cannot succeed.
	req := httpx.NewGet("http://"+originAddr+"/obj.bin", originAddr)
	delete(req.Header, "connection")
	if err := req.Write(conn); err == nil {
		if _, err := httpx.ReadResponse(bufio.NewReader(conn)); err == nil {
			t.Fatal("keep-alive survived a truncated forward")
		}
	}

	// And the truncation folds as an upstream transport failure — never
	// an OK sample.
	ph := foldedHealth(t, r, mon, originAddr)
	if ph.Ok != 0 || ph.Failed < 1 {
		t.Fatalf("health folded ok=%d failed=%d, want the truncation as a failure", ph.Ok, ph.Failed)
	}
}

func TestForwardUpstreamStallGuard(t *testing.T) {
	const objSize = 64 << 10
	// The origin goes silent 8 KB in, far longer than the relay's stall
	// guard: the relay must fail the forward, not wedge its handler.
	r, relayAddr, originAddr, _, mon := chaosRelay(t, objSize,
		[]shaper.Fault{{At: 8192, Do: shaper.Stall, Dur: 30 * time.Second}},
		WithUpstreamStall(250*time.Millisecond))

	_, body, conn, elapsed := shortGet(t, relayAddr, originAddr, "obj.bin", 10*time.Second)
	defer conn.Close()
	if int64(len(body)) >= objSize {
		t.Fatalf("got the whole object (%d bytes) past a stalled upstream", len(body))
	}
	if elapsed > 2*time.Second {
		t.Fatalf("stalled forward released the client after %v, want ~the stall guard", elapsed)
	}
	ph := foldedHealth(t, r, mon, originAddr)
	if ph.Ok != 0 || ph.Failed < 1 {
		t.Fatalf("health folded ok=%d failed=%d, want the stall as a failure", ph.Ok, ph.Failed)
	}
}

func TestFillForwardTruncationNeverPoisonsCache(t *testing.T) {
	const objSize = 32 << 10
	_, relayAddr, originAddr, ln, _ := chaosRelay(t, objSize,
		[]shaper.Fault{{Conn: 1, At: 4096, Do: shaper.Close}},
		WithCache(1<<20), WithVerifier(VerifyRange))

	// First fetch rides the truncated fill; it must come back short or
	// failed, and must not leave a partial span behind.
	if body, err := FetchVia(nil, relayAddr, originAddr, "obj.bin", 0, objSize); err == nil && int64(len(body)) == objSize {
		t.Fatal("truncated fill delivered a full object")
	}

	// Heal the path; the refetch must serve complete, verified bytes.
	ln.SetFaults()
	body, err := FetchVia(nil, relayAddr, originAddr, "obj.bin", 0, objSize)
	if err != nil {
		t.Fatalf("healed refetch: %v", err)
	}
	if int64(len(body)) != objSize || !VerifyRange("obj.bin", 0, body) {
		t.Fatalf("healed refetch returned %d corrupt-or-short bytes", len(body))
	}
}

func TestCachedRelayNeverServesCorruptSpan(t *testing.T) {
	const objSize = 32 << 10
	// Conn 1 (the cache fill) delivers a corrupted range; the serve-time
	// verifier must keep the poisoned span from ever reaching a client.
	_, relayAddr, originAddr, ln, _ := chaosRelay(t, objSize,
		[]shaper.Fault{{Conn: 1, At: 4096, Do: shaper.Corrupt, Len: 64}},
		WithCache(1<<20), WithVerifier(VerifyRange))

	first, err := FetchVia(nil, relayAddr, originAddr, "obj.bin", 0, objSize)
	if err == nil && VerifyRange("obj.bin", 0, first) && int64(len(first)) == objSize {
		t.Fatal("corrupting path delivered intact bytes; fault injection broke")
	}

	// Heal the upstream; every subsequent fetch — whether it hits the
	// cache or refills — must verify.
	ln.SetFaults()
	for i := 0; i < 3; i++ {
		body, err := FetchVia(nil, relayAddr, originAddr, "obj.bin", 0, objSize)
		if err != nil {
			t.Fatalf("fetch %d after heal: %v", i, err)
		}
		if int64(len(body)) != objSize || !VerifyRange("obj.bin", 0, body) {
			t.Fatalf("fetch %d served corrupt bytes from the relay tier", i)
		}
	}
}
