package realnet

import (
	"bufio"
	"context"
	"errors"
	"math"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// TestRetryDelayCapsLargeAttempts is the regression test for the backoff
// overflow: the old shift-based doubling went negative for large attempt
// numbers and fed rand.Int63n a non-positive argument, which panics. Every
// attempt number must now yield a positive delay within the jittered cap.
func TestRetryDelayCapsLargeAttempts(t *testing.T) {
	for _, backoff := range []time.Duration{0, time.Millisecond, time.Second} {
		tr := &Transport{RetryBackoff: backoff}
		for _, attempt := range []int{1, 2, 10, 64, 200, 1000, math.MaxInt32} {
			d := tr.retryDelay(attempt)
			if d <= 0 {
				t.Fatalf("backoff %v attempt %d: non-positive delay %v", backoff, attempt, d)
			}
			if max := maxRetryDelay + maxRetryDelay/2; d > max {
				t.Fatalf("backoff %v attempt %d: delay %v above jittered cap %v", backoff, attempt, d, max)
			}
		}
	}
}

// TestHugeMaxRetriesDoesNotPanic drives the real retry loop with an
// effectively unbounded retry budget against a dead address: the transfer
// must fail with the typed deadline error when its context expires, not
// blow up inside the backoff computation.
func TestHugeMaxRetriesDoesNotPanic(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close() // nothing listens here anymore
	m := obs.NewMetrics()
	tr := &Transport{
		Servers:      map[string]string{"origin": addr},
		MaxRetries:   math.MaxInt32,
		RetryBackoff: time.Nanosecond,
		DialTimeout:  20 * time.Millisecond,
		Observer:     m,
	}
	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	h := tr.StartCtx(ctx, core.Object{Server: "origin", Name: "x", Size: 10}, core.Path{}, 0, 10)
	tr.Wait(h)
	res := h.Result()
	if res.Err == nil {
		t.Fatal("fetch against a dead address succeeded?")
	}
	if !errors.Is(res.Err, core.ErrProbeTimeout) && !errors.Is(res.Err, core.ErrCanceled) {
		t.Fatalf("err = %v, want the typed context error", res.Err)
	}
	if m.Snapshot().Retries == 0 {
		t.Fatal("no retries recorded before the deadline")
	}
}

// TestStatusErrorKeepsConnWarm is the regression test for burning warm
// connections on status errors: a 404 on a pooled connection whose body
// was drained must return the connection to the pool, so the next warm
// fetch rides the same TCP connection.
func TestStatusErrorKeepsConnWarm(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1_000_000)
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
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 1_000_000}

	h := tr.Start(obj, core.Path{}, 0, 50_000)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatal(err)
	}

	// 404 on the parked connection: the error must surface, but the
	// connection survives.
	h2 := tr.StartWarm(core.Object{Server: "origin", Name: "missing.bin", Size: 10}, core.Path{}, 0, 10)
	tr.Wait(h2)
	var se *StatusError
	if err := h2.Result().Err; !errors.As(err, &se) || se.Status != 404 {
		t.Fatalf("err = %v, want a 404 StatusError", err)
	}

	h3 := tr.StartWarm(obj, core.Path{}, 50_000, 50_000)
	tr.Wait(h3)
	if err := h3.Result().Err; err != nil {
		t.Fatal(err)
	}
	if got := origin.Conns.Load(); got != 1 {
		t.Fatalf("origin accepted %d connections, want 1 (404 burned the warm conn)", got)
	}
	if st := tr.PoolStats(); st.Reuses != 2 {
		t.Fatalf("pool reuses = %d, want 2 (404 fetch + follow-up)", st.Reuses)
	}
}

// TestPoolBoundsIdlePerPath parks more connections than the per-path cap
// allows and checks the surplus is discarded, not accumulated.
func TestPoolBoundsIdlePerPath(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	tr := &Transport{
		Servers:        map[string]string{"origin": ol.Addr().String()},
		MaxIdlePerPath: 2,
	}
	defer tr.Close()
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 1_000_000}

	// Four concurrent cold fetches: four connections finish and try to
	// park, but only two slots exist.
	var hs []core.Handle
	for i := 0; i < 4; i++ {
		hs = append(hs, tr.Start(obj, core.Path{}, int64(i)*1000, 1000))
	}
	tr.Wait(hs...)
	for _, h := range hs {
		if err := h.Result().Err; err != nil {
			t.Fatal(err)
		}
	}
	st := tr.PoolStats()
	if st.Idle != 2 {
		t.Fatalf("idle connections = %d, want 2 (the cap)", st.Idle)
	}
	if st.Parked != 2 || st.Discarded != 2 {
		t.Fatalf("parked/discarded = %d/%d, want 2/2", st.Parked, st.Discarded)
	}
}

// TestPoolTTLEvictsIdleConns parks a connection under a tiny TTL and
// waits for the background sweeper to drop it.
func TestPoolTTLEvictsIdleConns(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		IdleTTL: 30 * time.Millisecond,
	}
	defer tr.Close()
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 1_000_000}
	h := tr.Start(obj, core.Path{}, 0, 1000)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatal(err)
	}
	if st := tr.PoolStats(); st.Idle != 1 {
		t.Fatalf("idle = %d right after parking, want 1", st.Idle)
	}

	deadline := time.Now().Add(2 * time.Second)
	for {
		st := tr.PoolStats()
		if st.Evicted >= 1 && st.Idle == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sweeper never evicted: %+v", st)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// countingDialer counts dials, so tests can assert connection reuse.
type countingDialer struct {
	dials atomic.Int64
	dial  func(network, addr string) (net.Conn, error)
}

func (d *countingDialer) Dial(network, addr string) (net.Conn, error) {
	d.dials.Add(1)
	if d.dial != nil {
		return d.dial(network, addr)
	}
	return net.Dial(network, addr)
}

// TestMultipathChunksReusePooledConns is the issue's pool-reuse
// acceptance test: a striped download over three paths must serve many
// chunks per dialed connection, with the reuse counter showing the warm
// continuations hitting the pool.
func TestMultipathChunksReusePooledConns(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1_500_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	r1, r2 := &relay.Relay{}, &relay.Relay{}
	l1, err := r1.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l1.Close()
	l2, err := r2.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()

	cd := &countingDialer{}
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r1": l1.Addr().String(), "r2": l2.Addr().String()},
		Dial:    cd.Dial,
		Verify:  true,
	}
	defer tr.Close()

	obj := core.Object{Server: "origin", Name: "big.bin", Size: 1_500_000}
	dl := &core.MultipathDownloader{Transport: tr, ChunkBytes: 100_000}
	res, err := dl.Download(context.Background(), obj, []string{"r1", "r2"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failures != 0 {
		t.Fatalf("%d chunk failures on loopback", res.Failures)
	}

	const chunks = 15 // 1.5 MB / 100 KB
	dials := cd.dials.Load()
	if dials >= chunks {
		t.Fatalf("%d dials for %d chunks: no connection reuse", dials, chunks)
	}
	st := tr.PoolStats()
	if st.Reuses < chunks/2 {
		t.Fatalf("pool reuses = %d, want at least %d of %d chunks warm", st.Reuses, chunks/2, chunks)
	}
	t.Logf("chunks=%d dials=%d pool=%+v", chunks, dials, st)
}

// TestPartialDeliveryRecorded checks the streaming pipeline's progress
// accounting: a transfer killed mid-stream reports how many bytes
// actually arrived.
func TestPartialDeliveryRecorded(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 4_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 4e6}) // 500 KB/s
	tr := &Transport{
		Servers:         map[string]string{"origin": ol.Addr().String()},
		Dial:            d.Dial,
		Verify:          true,
		TransferTimeout: 400 * time.Millisecond,
		MaxRetries:      -1,
	}
	defer tr.Close()
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 4_000_000}
	h := tr.Start(obj, core.Path{}, 0, 4_000_000) // ~8 s at 500 KB/s: the deadline wins
	tr.Wait(h)
	res := h.Result()
	if res.Err == nil {
		t.Fatal("4 MB at 500 KB/s finished inside 400 ms?")
	}
	if res.Delivered <= 0 || res.Delivered >= res.Bytes {
		t.Fatalf("delivered = %d of %d, want a proper partial count", res.Delivered, res.Bytes)
	}
	if got := res.DeliveredBytes(); got != res.Delivered {
		t.Fatalf("DeliveredBytes() = %d, want %d", got, res.Delivered)
	}
}

// TestMidStreamCorruptionDetected checks the incremental verifier inside
// the stream loop: a byte flipped deep in the body fails the transfer
// with a content-mismatch error.
func TestMidStreamCorruptionDetected(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1_000_000)
	ol, err := shaper.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	// Flip a byte ~500 KB into the stream (well past the response head).
	ol.SetFaults(shaper.Fault{At: 500_000, Do: shaper.Corrupt, Len: 1})
	go origin.Serve(ol)
	tr := &Transport{
		Servers:    map[string]string{"origin": ol.Addr().String()},
		Verify:     true,
		MaxRetries: -1,
	}
	defer tr.Close()
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 1_000_000}
	h := tr.Start(obj, core.Path{}, 0, 800_000)
	tr.Wait(h)
	res := h.Result()
	if res.Err == nil {
		t.Fatal("corrupted stream verified clean")
	}
	if !strings.Contains(res.Err.Error(), "content mismatch") {
		t.Fatalf("err = %v, want content mismatch", res.Err)
	}
	// The clean prefix was still counted as delivered progress.
	if res.Delivered <= 0 || res.Delivered > 500_000 {
		t.Fatalf("delivered = %d, want a partial count up to the corruption", res.Delivered)
	}
}

// TestPoolCloseDiscards checks Close semantics: parked connections are
// evicted and later finishers are discarded instead of parked.
func TestPoolCloseDiscards(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	tr := &Transport{Servers: map[string]string{"origin": ol.Addr().String()}}
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 1_000_000}
	h := tr.Start(obj, core.Path{}, 0, 1000)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatal(err)
	}
	tr.Close()
	st := tr.PoolStats()
	if st.Idle != 0 || st.Evicted != 1 {
		t.Fatalf("after Close: idle=%d evicted=%d, want 0/1", st.Idle, st.Evicted)
	}
	// Transfers still work, but their connections are discarded now.
	h2 := tr.Start(obj, core.Path{}, 0, 1000)
	tr.Wait(h2)
	if err := h2.Result().Err; err != nil {
		t.Fatal(err)
	}
	if st := tr.PoolStats(); st.Discarded == 0 {
		t.Fatal("post-Close connection was not discarded")
	}
	tr.Close() // idempotent
}

// TestTakeSkipsExpiredLIFO exercises the pool directly: expired entries
// found on the take path are evicted, and take prefers the most recently
// parked connection.
func TestTakeSkipsExpiredLIFO(t *testing.T) {
	p := newConnPool(4, 50*time.Millisecond)
	mk := func() (*pooledConn, net.Conn) {
		a, b := net.Pipe()
		return &pooledConn{conn: a, br: bufio.NewReader(a)}, b
	}
	old, _ := mk()
	fresh, _ := mk()
	p.park("k", old)
	p.park("k", fresh)
	// Backdate the first entry past the TTL.
	p.mu.Lock()
	p.idle["k"][0].since = time.Now().Add(-time.Minute)
	p.mu.Unlock()

	if got := p.take("k"); got != fresh {
		t.Fatal("take did not return the most recently parked conn")
	}
	if got := p.take("k"); got != nil {
		t.Fatal("expired entry served instead of evicted")
	}
	st := p.stats()
	if st.Reuses != 1 || st.Evicted != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v, want 1 reuse, 1 evict, 1 miss", st)
	}
	p.close()
}
