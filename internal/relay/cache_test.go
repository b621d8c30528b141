package relay

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/httpx"
)

// startCachedRelay starts a relay built through the options API with a
// cache of the given capacity (plus any extra options).
func startCachedRelay(t *testing.T, cacheBytes int64, extra ...Option) (*Relay, string) {
	t.Helper()
	r := New(append([]Option{WithCache(cacheBytes)}, extra...)...)
	l, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return r, l.Addr().String()
}

// fetchWhole downloads a full object (no Range header) through the
// relay, returning the body and the response's x-cache header.
func fetchWhole(relayAddr, originAddr, name string) ([]byte, string, error) {
	conn, err := net.Dial("tcp", relayAddr)
	if err != nil {
		return nil, "", err
	}
	defer conn.Close()
	req := httpx.NewGet("http://"+originAddr+"/"+name, originAddr)
	if err := req.Write(conn); err != nil {
		return nil, "", err
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return nil, "", err
	}
	body, err := io.ReadAll(resp.Body)
	return body, resp.Header["x-cache"], err
}

func TestCachedRelayServesRepeatsWithoutOrigin(t *testing.T) {
	o, originAddr := startOrigin(t)
	r, relayAddr := startCachedRelay(t, 1<<20)

	body, err := FetchVia(nil, relayAddr, originAddr, "big.bin", 0, 64<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyRange("big.bin", 0, body) {
		t.Fatal("first (miss) fetch returned wrong bytes")
	}
	r.WaitIdle()
	o.WaitIdle()
	conns := o.Conns.Load()
	egress := o.BytesServed.Load()

	// The identical range, then sub-ranges of the cached span: all must
	// be served from memory without a single new origin connection.
	for _, rg := range []struct{ off, n int64 }{{0, 64 << 10}, {1000, 1000}, {63 << 10, 1 << 10}} {
		body, err := FetchVia(nil, relayAddr, originAddr, "big.bin", rg.off, rg.n)
		if err != nil {
			t.Fatal(err)
		}
		if int64(len(body)) != rg.n || !VerifyRange("big.bin", rg.off, body) {
			t.Fatalf("cached range [%d,+%d) served wrong bytes", rg.off, rg.n)
		}
	}
	if got := o.Conns.Load(); got != conns {
		t.Fatalf("cached fetches opened %d new origin conns", got-conns)
	}
	if got := o.BytesServed.Load(); got != egress {
		t.Fatalf("cached fetches cost %d origin bytes", got-egress)
	}
	r.WaitIdle()
	s := r.Cache().Stats()
	if s.Hits != 3 || s.Misses != 1 || s.Fills != 1 {
		t.Fatalf("cache counters: %+v", s)
	}
}

func TestCachedRelayWholeObjectLearnsSize(t *testing.T) {
	o, originAddr := startOrigin(t)
	o.Put("small.bin", 8192)
	r, relayAddr := startCachedRelay(t, 1<<20)

	body, how, err := fetchWhole(relayAddr, originAddr, "small.bin")
	if err != nil {
		t.Fatal(err)
	}
	if how != "miss" || len(body) != 8192 || !VerifyRange("small.bin", 0, body) {
		t.Fatalf("first whole-object fetch: x-cache=%q, %d bytes", how, len(body))
	}
	r.WaitIdle()
	conns := o.Conns.Load()

	// The 200's Content-Length recorded the extent, so the repeat — still
	// rangeless — resolves to the full cached span.
	body, how, err = fetchWhole(relayAddr, originAddr, "small.bin")
	if err != nil {
		t.Fatal(err)
	}
	if how != "hit" || !VerifyRange("small.bin", 0, body) {
		t.Fatalf("repeat whole-object fetch: x-cache=%q", how)
	}
	// And so does an explicit range over the same bytes.
	rbody, err := FetchVia(nil, relayAddr, originAddr, "small.bin", 100, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyRange("small.bin", 100, rbody) {
		t.Fatal("ranged read of whole-object fill served wrong bytes")
	}
	if got := o.Conns.Load(); got != conns {
		t.Fatalf("%d extra origin conns after whole-object fill", got-conns)
	}
	if size, ok := r.Cache().Size(cacheKey(originAddr, "/small.bin")); !ok || size != 8192 {
		t.Fatalf("recorded size = %d, %v", size, ok)
	}
}

// TestSingleflightCollapsesRelayMisses is the acceptance-criteria proof:
// K concurrent misses for the same range issue exactly one origin fetch
// that every waiter is served from.
func TestSingleflightCollapsesRelayMisses(t *testing.T) {
	o, originAddr := startOrigin(t)
	gate := make(chan struct{})
	r, relayAddr := startCachedRelay(t, 1<<20, WithDialer(
		func(network, addr string) (net.Conn, error) {
			<-gate // hold the leader's upstream dial until every waiter is parked
			return net.Dial(network, addr)
		}))

	const clients = 6
	var wg sync.WaitGroup
	errs := make(chan error, clients)
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			body, err := FetchVia(nil, relayAddr, originAddr, "big.bin", 4096, 32<<10)
			if err == nil && !VerifyRange("big.bin", 4096, body) {
				err = errWrongBytes
			}
			errs <- err
		}()
	}
	awaitWaiters(t, r, clients-1)
	close(gate)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}

	if got := o.Conns.Load(); got != 1 {
		t.Fatalf("%d origin fetches for %d concurrent misses, want exactly 1", got, clients)
	}
	s := r.Cache().Stats()
	if s.SharedFills != clients-1 || s.ActiveFlights != 0 {
		t.Fatalf("flight counters: %+v", s)
	}
}

// awaitWaiters yields until n requests are parked on another's fill.
func awaitWaiters(t *testing.T, r *Relay, n int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for r.Cache().Stats().FlightWaiters != n {
		if time.Now().After(deadline) {
			t.Fatalf("waiters never converged: %+v", r.Cache().Stats())
		}
		runtime.Gosched()
	}
}

// poisonedOnce is a stub upstream whose first connection holds its
// answer until gate closes and then serves the range with one bit
// flipped; every later connection serves it intact.
func poisonedOnce(t *testing.T, name string, n int64, gate <-chan struct{}) (addr string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	serve := func(conn net.Conn, poisoned bool) {
		defer conn.Close()
		if _, err := httpx.ReadRequest(bufio.NewReader(conn)); err != nil {
			return
		}
		body := make([]byte, n)
		FillRange(name, 0, body)
		if poisoned {
			<-gate
			body[n/2] ^= 0x10
		}
		httpx.WriteResponseHead(conn, 206, "Partial Content", map[string]string{
			"content-length": strconv.FormatInt(n, 10),
			"content-range":  httpx.ContentRange(0, n, n),
		})
		conn.Write(body)
	}
	go func() {
		for first := true; ; first = false {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			go serve(conn, first)
		}
	}()
	return l.Addr().String()
}

// A request that joins a fill still in flight is handed the leader's
// buffer, not a cached span, so it needs the serve-time check too: the
// waiter on a poisoned fill must refetch, never answer "x-cache: shared"
// with the corrupt bytes.
func TestWaiterOnPoisonedFillIsNotServedIt(t *testing.T) {
	const name, n = "obj.bin", int64(32 << 10)
	gate := make(chan struct{})
	upstream := poisonedOnce(t, name, n, gate)
	r, relayAddr := startCachedRelay(t, 1<<20, WithVerifier(VerifyRange))

	fetch := func() (reply, error) {
		conn, err := net.Dial("tcp", relayAddr)
		if err != nil {
			return reply{}, err
		}
		defer conn.Close()
		req := httpx.NewGet("http://"+upstream+"/"+name, upstream)
		req.SetRange(0, n)
		if err := req.Write(conn); err != nil {
			return reply{}, err
		}
		resp, err := httpx.ReadResponse(bufio.NewReader(conn))
		if err != nil {
			return reply{}, err
		}
		body, err := io.ReadAll(resp.Body)
		return reply{header: resp.Header, body: body}, err
	}

	leader := make(chan reply, 1)
	go func() {
		got, _ := fetch()
		leader <- got
	}()
	for r.Cache().Stats().ActiveFlights != 1 {
		runtime.Gosched()
	}
	waiter := make(chan reply, 1)
	go func() {
		got, err := fetch()
		got.failed = err != nil
		waiter <- got
	}()
	awaitWaiters(t, r, 1)
	close(gate)

	if got := <-leader; VerifyRange(name, 0, got.body) {
		t.Fatal("the poisoned fill reached its leader intact; the stub upstream broke")
	}
	// Canonical bytes or an error, never the corrupt span.
	if got := <-waiter; !got.failed {
		canonical := int64(len(got.body)) == n && VerifyRange(name, 0, got.body)
		if how := got.header["x-cache"]; how == "shared" || !canonical {
			t.Fatalf("waiter got %d bytes, x-cache %q, canonical=%v: served the poisoned fill",
				len(got.body), how, canonical)
		}
	}
	if s := r.Cache().Stats(); s.VerifyFailures < 1 || s.SharedFills != 0 {
		t.Fatalf("the refused fill left no trace: %+v", s)
	}
}

func TestCorruptedCachedRangeRefetchedOnServe(t *testing.T) {
	o, originAddr := startOrigin(t)
	r, relayAddr := startCachedRelay(t, 1<<20, WithVerifier(VerifyRange))

	if _, err := FetchVia(nil, relayAddr, originAddr, "big.bin", 0, 32<<10); err != nil {
		t.Fatal(err)
	}
	conns := o.Conns.Load()

	// Flip the cached bytes under the relay (all zeroes never match the
	// synthetic content). Serving must catch it, drop the span, and
	// refetch from the origin rather than hand out the corruption.
	r.Cache().Put(cacheKey(originAddr, "/big.bin"), 0, make([]byte, 32<<10))
	body, err := FetchVia(nil, relayAddr, originAddr, "big.bin", 0, 32<<10)
	if err != nil {
		t.Fatal(err)
	}
	if !VerifyRange("big.bin", 0, body) {
		t.Fatal("relay served corrupted cached bytes")
	}
	if got := o.Conns.Load(); got != conns+1 {
		t.Fatalf("refetch opened %d origin conns, want 1", got-conns)
	}
	s := r.Cache().Stats()
	if s.VerifyFailures != 1 {
		t.Fatalf("verify counters: %+v", s)
	}
	// The refetch replaced the span with good bytes: warm again.
	if _, err := FetchVia(nil, relayAddr, originAddr, "big.bin", 0, 32<<10); err != nil {
		t.Fatal(err)
	}
	if got := o.Conns.Load(); got != conns+1 {
		t.Fatal("post-refetch fetch went to the origin again")
	}
}

func TestCachelessRelayUnchangedByOptionsAPI(t *testing.T) {
	o, originAddr := startOrigin(t)
	r := New() // no options: equivalent to &Relay{}
	l, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if r.Cache() != nil {
		t.Fatal("cache attached without WithCache")
	}
	for i := 0; i < 2; i++ {
		body, err := FetchVia(nil, l.Addr().String(), originAddr, "big.bin", 0, 4096)
		if err != nil {
			t.Fatal(err)
		}
		if !VerifyRange("big.bin", 0, body) {
			t.Fatal("wrong bytes")
		}
	}
	if got := o.Conns.Load(); got != 2 {
		t.Fatalf("cacheless relay reached the origin %d times, want every request", got)
	}
}

// TestCacheMissAllocCeiling holds a cached relay's miss to what a plain
// forward costs plus the bytes the cache keeps: with the free list
// warm, the fill buffer is an evicted span's, handed to the cache
// uncopied (the benchmark ladder's relay.cache_miss_alloc_KB_per_req
// prices the same exchange; 258 KB per 128 KiB miss when it was copied).
func TestCacheMissAllocCeiling(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what is Put: there is no ceiling to hold")
	}
	o, originAddr := startOrigin(t)
	const n, objects, runs = 128 << 10, 8, 64
	for i := 0; i < objects; i++ {
		o.Put(fmt.Sprintf("m%d.bin", i), n)
	}
	// The relay holds half the objects and the client rotates through
	// all of them on one connection: every fetch misses, fills, evicts.
	_, relayAddr := startCachedRelay(t, objects/2*n)
	c := dialKept(t, relayAddr)
	next := 0
	miss := func() {
		name := fmt.Sprintf("m%d.bin", next%objects)
		next++
		c.send("GET", originAddr, name, 0, n)
		resp, err := httpx.ReadResponse(c.br)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := io.Copy(io.Discard, resp.Body); err != nil || got != n || resp.Header["x-cache"] != "miss" {
			t.Fatalf("%s: %d bytes, %v, x-cache %q; want a %d-byte miss", name, got, err, resp.Header["x-cache"], n)
		}
	}
	for i := 0; i < 2*objects; i++ {
		miss() // fills the cache, the free list and the buffer pools
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		miss()
	}
	runtime.ReadMemStats(&after)
	if kb := float64(after.TotalAlloc-before.TotalAlloc) / runs / 1024; kb > 16 {
		t.Errorf("cached relay miss: %.1f KB allocated per 128 KiB miss, want <= 16", kb)
	} else {
		t.Logf("cached relay miss: %.1f KB allocated per 128 KiB miss", kb)
	}
}

// Clients racing hits against misses that evict and refill: every
// response must carry the canonical bytes, so a buffer recycled while a
// hit was still writing it would show. No verifier, which would turn
// such a hit into a refetch and hide it.
func TestCachedRelayServesCanonicalBytesUnderChurn(t *testing.T) {
	o, originAddr := startOrigin(t)
	const n, objects, clients, fetches = 32 << 10, 8, 4, 40
	for i := 0; i < objects; i++ {
		o.Put(fmt.Sprintf("c%d.bin", i), n)
	}
	r, relayAddr := startCachedRelay(t, objects/2*n)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; i < fetches; i++ {
				name := fmt.Sprintf("c%d.bin", (c+i*i)%objects)
				body, err := FetchVia(nil, relayAddr, originAddr, name, 0, n)
				if err != nil || int64(len(body)) != n || !VerifyRange(name, 0, body) {
					t.Errorf("%s: %d bytes, %v: not the canonical content", name, len(body), err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	r.WaitIdle()
	if s := r.Cache().Stats(); s.Hits == 0 || s.Evictions == 0 {
		t.Fatalf("no churn to test: %+v", s)
	}
}

var errWrongBytes = errVerify{}

type errVerify struct{}

func (errVerify) Error() string { return "relay: fetched bytes failed verification" }
