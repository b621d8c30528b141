package relay

import (
	"bufio"
	"io"
	"net"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Tests for the relay's upstream leg: it belongs to the client
// connection, is kept only across clean exchanges, and a stale one costs
// a silent redial. Nothing here sleeps: stub upstreams are gated on
// channels and everything a request leaves behind is read after WaitIdle.

// legDialer is a counting upstream dialer that also watches what the
// relay does to each connection it hands out.
type legDialer struct {
	mu      sync.Mutex
	dials   int
	live    int // handed out and not yet closed
	maxLive int
	conns   []*legConn
}

type legConn struct {
	net.Conn
	d            *legDialer
	closed       bool
	readDeadline time.Time // the last one set
}

func (d *legDialer) dial(network, addr string) (net.Conn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	d.dials++
	d.live++
	d.maxLive = max(d.maxLive, d.live)
	c := &legConn{Conn: conn, d: d}
	d.conns = append(d.conns, c)
	return c, nil
}

func (c *legConn) Close() error {
	c.d.mu.Lock()
	if !c.closed {
		c.closed = true
		c.d.live--
	}
	c.d.mu.Unlock()
	return c.Conn.Close()
}

func (c *legConn) SetReadDeadline(t time.Time) error {
	c.d.mu.Lock()
	c.readDeadline = t
	c.d.mu.Unlock()
	return c.Conn.SetReadDeadline(t)
}

// counts returns dials made, legs open now, and the most ever open at once.
func (d *legDialer) counts() (dials, live, maxLive int) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.dials, d.live, d.maxLive
}

// legRelay starts a relay that dials through d and records wide events.
func legRelay(t *testing.T, d *legDialer, opts ...Option) (r *Relay, addr string, mon *obs.HealthMonitor, rec *flight.Recorder) {
	t.Helper()
	mon = obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})
	rec = flight.NewRecorder(flight.Config{Ring: 64})
	r = New(append([]Option{WithDialer(d.dial), WithHealthMonitor(mon), WithFlight(rec)}, opts...)...)
	l, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return r, l.Addr().String(), mon, rec
}

// keptConn is a client holding one keep-alive connection to a relay.
type keptConn struct {
	t    *testing.T
	conn net.Conn
	br   *bufio.Reader
}

func dialKept(t *testing.T, relayAddr string) *keptConn {
	t.Helper()
	conn, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(20 * time.Second)) // a hung relay fails the test, not the suite
	return &keptConn{t: t, conn: conn, br: bufio.NewReader(conn)}
}

// send writes one keep-alive request for [off, off+n) of name at upstream.
func (c *keptConn) send(method, upstream, name string, off, n int64) {
	c.t.Helper()
	req := httpx.NewGet("http://"+upstream+"/"+name, upstream)
	delete(req.Header, "connection")
	req.Method = method
	req.SetRange(off, n)
	if err := req.Write(c.conn); err != nil {
		c.t.Fatal(err)
	}
}

// get asks for [off, off+n) of name at upstream and reads the whole
// answer, which must be a 206 carrying the object's canonical bytes.
func (c *keptConn) get(upstream, name string, off, n int64) {
	c.t.Helper()
	c.send("GET", upstream, name, off, n)
	resp, err := httpx.ReadResponse(c.br)
	if err != nil {
		c.t.Fatalf("GET %s %d+%d: %v", name, off, n, err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || resp.Status != 206 || int64(len(body)) != n || !VerifyRange(name, off, body) {
		c.t.Fatalf("GET %s %d+%d: status %d, %d bytes, err %v, canonical %v",
			name, off, n, resp.Status, len(body), err, VerifyRange(name, off, body))
	}
}

// phaseNames lists the phases of wide events oldest first, one string
// per event ("dial ttfb stream").
func phaseNames(rec *flight.Recorder) []string {
	evs := rec.Events(flight.Filter{})
	out := make([]string, len(evs))
	for i, ev := range evs {
		var names []string
		for _, p := range ev.Phases {
			names = append(names, p.Name)
		}
		out[len(evs)-1-i] = strings.Join(names, " ")
	}
	return out
}

func TestLegIsKeptPerClientConnection(t *testing.T) {
	origin, originAddr := startOrigin(t)
	var d legDialer
	r, relayAddr, mon, rec := legRelay(t, &d)

	const n = 5
	c := dialKept(t, relayAddr)
	for i := int64(0); i < n; i++ {
		c.get(originAddr, "big.bin", i*1000, 50_000)
	}
	r.WaitIdle()
	if dials, live, _ := d.counts(); dials != 1 || live != 1 || origin.Conns.Load() != 1 {
		t.Fatalf("%d requests on one client connection: %d dials, %d legs open, origin saw %d connections; want 1, 1, 1",
			n, dials, live, origin.Conns.Load())
	}
	want := []string{"dial ttfb stream", "ttfb stream", "ttfb stream", "ttfb stream", "ttfb stream"}
	if got := phaseNames(rec); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("phases %q, want a dial on the first exchange only", got)
	}

	// Every new client connection — every probe — gets a path that is
	// cold end to end.
	for i := 0; i < n; i++ {
		dialKept(t, relayAddr).get(originAddr, "big.bin", 0, 50_000)
	}
	r.WaitIdle()
	if dials, _, _ := d.counts(); dials != 1+n || origin.Conns.Load() != 1+n {
		t.Fatalf("%d fresh client connections: %d dials, origin saw %d connections; want %d",
			n, dials, origin.Conns.Load(), 1+n)
	}
	if ph, _ := mon.PathHealth(originAddr); ph.Ok != 2*n || ph.Failed != 0 {
		t.Fatalf("health ok=%d failed=%d, want %d clean forwards", ph.Ok, ph.Failed, 2*n)
	}
}

func TestLegDiesWithItsClientConnection(t *testing.T) {
	_, originAddr := startOrigin(t)
	var d legDialer
	_, relayAddr, _, _ := legRelay(t, &d)

	c := dialKept(t, relayAddr)
	c.get(originAddr, "big.bin", 0, 1000)
	if _, live, _ := d.counts(); live != 1 {
		t.Fatalf("%d legs open behind a live client connection, want 1", live)
	}
	c.conn.Close()
	// WaitIdle covers requests, not connections; yield to the handler
	// until it has seen the client go.
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, live, _ := d.counts(); live == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatal("the leg outlived its client connection")
		}
		runtime.Gosched()
	}
}

func TestLegFollowsTheUpstreamAddress(t *testing.T) {
	_, addrA := startOrigin(t)
	_, addrB := startOrigin(t)
	var d legDialer
	r, relayAddr, _, _ := legRelay(t, &d)

	c := dialKept(t, relayAddr)
	for _, upstream := range []string{addrA, addrA, addrB, addrB, addrA} {
		c.get(upstream, "big.bin", 0, 10_000)
	}
	r.WaitIdle()
	// A, B, A: three dials, and the old leg is closed before the new one
	// is dialled — a client connection never holds two.
	if dials, live, maxLive := d.counts(); dials != 3 || live != 1 || maxLive != 1 {
		t.Fatalf("%d dials, %d legs open, %d at once; want 3, 1, 1", dials, live, maxLive)
	}
}

// A HEAD answer declares a length and carries no body. The relay used to
// wait for one, fold "short body 0/N" against the upstream and kill the
// client connection.
func TestHeadThroughRelay(t *testing.T) {
	_, originAddr := startOrigin(t)
	var d legDialer
	r, relayAddr, mon, _ := legRelay(t, &d)

	c := dialKept(t, relayAddr)
	c.send("HEAD", originAddr, "big.bin", 0, 1000)
	resp, err := httpx.ReadResponse(c.br)
	if err != nil || resp.Status != 206 || resp.ContentLength != 1000 {
		t.Fatalf("HEAD: %+v, %v", resp, err)
	}
	// The client connection — and the leg behind it — carry the next request.
	c.get(originAddr, "big.bin", 0, 1000)
	r.WaitIdle()
	ph, _ := mon.PathHealth(originAddr)
	if ph.Ok != 2 || ph.Failed != 0 || ph.State != obs.HealthHealthy {
		t.Fatalf("health after HEAD+GET: state %v ok=%d failed=%d, want healthy 2/0", ph.State, ph.Ok, ph.Failed)
	}
	if dials, live, _ := d.counts(); dials != 1 || live != 1 {
		t.Fatalf("HEAD+GET on one connection: %d dials, %d legs open; want 1, 1", dials, live)
	}
}

func TestCanceledProbeTakesItsLegWithIt(t *testing.T) {
	origin, originAddr := startOrigin(t)
	origin.Put("huge.bin", 64<<20)
	var d legDialer
	r, relayAddr, mon, rec := legRelay(t, &d)

	// The probe: a client that reads the start of a large body and hangs
	// up, as the engine does to the losers of a race.
	c := dialKept(t, relayAddr)
	c.send("GET", originAddr, "huge.bin", 0, 64<<20)
	resp, err := httpx.ReadResponse(c.br)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := io.ReadFull(resp.Body, make([]byte, 16<<10)); err != nil {
		t.Fatal(err)
	}
	c.conn.Close()
	r.WaitIdle()
	if _, live, _ := d.counts(); live != 0 {
		t.Fatalf("%d legs open after a probe canceled mid-body; its unread bytes must go with it", live)
	}
	evs := rec.Events(flight.Filter{})
	if len(evs) != 1 || evs[0].Class != "canceled" {
		t.Fatalf("recorded %+v, want one canceled forward", evs)
	}
	if ph, ok := mon.PathHealth(originAddr); ok && ph.Failed != 0 {
		t.Fatalf("a canceled probe folded %d failures against the upstream", ph.Failed)
	}

	// The next request, on a new connection, gets the object's bytes and
	// nothing of the abandoned response.
	dialKept(t, relayAddr).get(originAddr, "huge.bin", 5, 100_000)
	if dials, _, _ := d.counts(); dials != 2 {
		t.Fatalf("%d dials, want one per client connection", dials)
	}
}

func TestSeveredLegIsRedialledSilently(t *testing.T) {
	const size = 1 << 20
	rec := flight.NewRecorder(flight.Config{Ring: 16})
	r, relayAddr, originAddr, ln, mon := chaosRelay(t, size, nil, WithFlight(rec))

	c := dialKept(t, relayAddr)
	c.get(originAddr, "obj.bin", 0, 10_000)
	c.get(originAddr, "obj.bin", 10_000, 10_000)
	// The upstream restarts (or idles the leg out) between two requests.
	ln.Sever()
	c.get(originAddr, "obj.bin", 20_000, 10_000)
	r.WaitIdle()

	if got := ln.Accepted(); got != 2 {
		t.Fatalf("origin accepted %d connections, want the first leg and one redial", got)
	}
	ph, _ := mon.PathHealth(originAddr)
	if ph.Ok != 3 || ph.Failed != 0 {
		t.Fatalf("health ok=%d failed=%d: a stale leg is not a failure of the path", ph.Ok, ph.Failed)
	}
	want := []string{"dial ttfb stream", "ttfb stream", "ttfb dial ttfb stream"}
	if got := phaseNames(rec); strings.Join(got, ",") != strings.Join(want, ",") {
		t.Fatalf("phases %q, want %q", got, want)
	}
}

// scriptedUpstream is a stub origin: each accepted connection is handed,
// with its ordinal (1 for the first), to serve, which answers requests on
// it as the test scripts. It returns the stub's address.
func scriptedUpstream(t *testing.T, serve func(ordinal int, conn net.Conn, br *bufio.Reader)) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for ordinal := 1; ; ordinal++ {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				serve(ordinal, conn, bufio.NewReader(conn))
			}()
		}
	}()
	return l.Addr().String()
}

// answerRange reads one request from br and answers its range of name in
// full; it reports false when the peer is gone.
func answerRange(conn net.Conn, br *bufio.Reader, name string, size int64) bool {
	req, err := httpx.ReadRequest(br)
	if err != nil {
		return false
	}
	off, n, err := httpx.ParseRange(req.Header["range"], size)
	if err != nil {
		return false
	}
	httpx.WriteResponseHead(conn, 206, "Partial Content", map[string]string{
		"content-length": strconv.FormatInt(n, 10),
		"content-range":  httpx.ContentRange(off, n, size),
	})
	_, err = WriteRange(conn, name, off, n, nil)
	return err == nil
}

// An upstream that drops an idle connection — the origin does after
// keepAliveIdle — leaves the relay a leg that is open on its side only.
func TestIdledOutLegIsRedialled(t *testing.T) {
	const name, size = "obj.bin", int64(1 << 20)
	upstream := scriptedUpstream(t, func(ordinal int, conn net.Conn, br *bufio.Reader) {
		if ordinal == 1 {
			answerRange(conn, br, name, size) // then the deferred Close: idled out
			return
		}
		for answerRange(conn, br, name, size) {
		}
	})
	var d legDialer
	r, relayAddr, mon, rec := legRelay(t, &d)

	c := dialKept(t, relayAddr)
	c.get(upstream, name, 0, 10_000)
	c.get(upstream, name, 10_000, 10_000)
	c.get(upstream, name, 20_000, 10_000)
	r.WaitIdle()
	if dials, live, _ := d.counts(); dials != 2 || live != 1 {
		t.Fatalf("%d dials, %d legs open; want the idled-out leg replaced once and its successor kept", dials, live)
	}
	if ph, _ := mon.PathHealth(upstream); ph.Ok != 3 || ph.Failed != 0 {
		t.Fatalf("health ok=%d failed=%d, want 3/0", ph.Ok, ph.Failed)
	}
	if got := phaseNames(rec); got[1] != "ttfb dial ttfb stream" || got[2] != "ttfb stream" {
		t.Fatalf("phases %q: want a redial on the second exchange and a reuse on the third", got)
	}
}

func TestStallGuardOnAReusedLeg(t *testing.T) {
	const name, size = "obj.bin", int64(1 << 20)
	release := make(chan struct{})
	t.Cleanup(func() { close(release) })
	upstream := scriptedUpstream(t, func(ordinal int, conn net.Conn, br *bufio.Reader) {
		if !answerRange(conn, br, name, size) {
			return
		}
		// The second request on the connection gets a head, 4 KiB of the
		// 64 KiB it promises, and silence.
		if _, err := httpx.ReadRequest(br); err != nil {
			return
		}
		httpx.WriteResponseHead(conn, 206, "Partial Content", map[string]string{
			"content-length": "65536",
			"content-range":  httpx.ContentRange(0, 65536, size),
		})
		WriteRange(conn, name, 0, 4096, nil)
		<-release
	})
	var d legDialer
	r, relayAddr, mon, _ := legRelay(t, &d, WithUpstreamStall(200*time.Millisecond))

	c := dialKept(t, relayAddr)
	c.get(upstream, name, 0, 10_000)
	r.WaitIdle()
	// Parked between requests, the leg has no deadline armed: the guard
	// times the upstream's reads, not this client's pauses.
	d.mu.Lock()
	parked := d.conns[0]
	armed, closed := parked.readDeadline, parked.closed
	d.mu.Unlock()
	if closed || !armed.IsZero() {
		t.Fatalf("parked leg: closed=%v, read deadline %v; want open with none", closed, armed)
	}

	c.send("GET", upstream, name, 0, 65536)
	resp, err := httpx.ReadResponse(c.br)
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	if len(body) >= 65536 {
		t.Fatalf("got all %d bytes past a silent upstream", len(body))
	}
	if !VerifyRange(name, 0, body) {
		t.Fatal("delivered prefix corrupted")
	}
	// The guard fired mid-body, so PR 8's guarantees hold on a reused leg
	// as on a fresh one: failure folded, client connection killed, no
	// redial once a byte was forwarded.
	ph := foldedHealth(t, r, mon, upstream)
	if ph.Ok != 1 || ph.Failed != 1 {
		t.Fatalf("health ok=%d failed=%d, want the stall as the one failure", ph.Ok, ph.Failed)
	}
	if _, err := c.br.ReadByte(); err == nil {
		t.Fatal("client connection survived a truncated forward")
	}
	if dials, live, _ := d.counts(); dials != 1 || live != 0 {
		t.Fatalf("%d dials, %d legs open; want no redial mid-body and the stalled leg closed", dials, live)
	}
}

// The relay's one cached path runs the same exchange: a cached relay's
// misses arriving on one client connection share its leg, and hits in
// between leave it parked.
func TestCachedRelayMissesShareTheLeg(t *testing.T) {
	origin, originAddr := startOrigin(t)
	var d legDialer
	r, relayAddr, _, _ := legRelay(t, &d, WithCache(8<<20), WithVerifier(VerifyRange))

	c := dialKept(t, relayAddr)
	for _, off := range []int64{0, 100_000, 0, 200_000, 100_000, 300_000} {
		c.get(originAddr, "big.bin", off, 50_000)
	}
	r.WaitIdle()
	s := r.Cache().Stats()
	if s.Hits != 2 || s.Fills != 4 {
		t.Fatalf("cache %+v, want 2 hits and 4 fills", s)
	}
	if dials, _, _ := d.counts(); dials != 1 || origin.Conns.Load() != 1 {
		t.Fatalf("4 misses on one client connection: %d dials, origin saw %d connections; want 1", dials, origin.Conns.Load())
	}
}

// TestOriginServeAllocCeiling enforces the serve path's allocation
// budget where it cannot drift (the benchmark ladder's
// relay.origin_allocs_per_req prices the same exchange): one keep-alive
// ranged GET, client included, with the buffer pools warm.
func TestOriginServeAllocCeiling(t *testing.T) {
	_, originAddr := startOrigin(t)
	conn, err := net.Dial("tcp", originAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	get := func() {
		req := httpx.NewGet("/big.bin", originAddr)
		delete(req.Header, "connection")
		req.SetRange(0, 128<<10)
		if err := req.Write(conn); err != nil {
			t.Fatal(err)
		}
		resp, err := httpx.ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		if n, err := io.Copy(io.Discard, resp.Body); err != nil || n != 128<<10 {
			t.Fatalf("body: %d bytes, %v", n, err)
		}
	}
	if got := testing.AllocsPerRun(100, get); got > 24 && !bufpool.RaceEnabled {
		t.Errorf("origin serve: %v allocs per request, want <= 24", got)
	} else {
		t.Logf("origin serve: %v allocs per request", got)
	}
}
