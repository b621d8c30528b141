package repro_test

import (
	"context"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/relay"
)

// fakeTransport is a minimal in-memory transport over a fake clock whose
// first failStarts transfers fail — an outage that heals.
type fakeTransport struct {
	now        float64
	rate       float64
	failStarts int
	starts     int
	lastBytes  int64
}

type fakeHandle struct {
	res  repro.FetchResult
	done bool
}

func (h *fakeHandle) Done() bool                { return h.done }
func (h *fakeHandle) Result() repro.FetchResult { return h.res }

func (t *fakeTransport) Now() float64 { return t.now }

func (t *fakeTransport) StartCtx(_ context.Context, obj repro.Object, path repro.Path, off, n int64) repro.Handle {
	t.starts++
	t.lastBytes = n
	h := &fakeHandle{res: repro.FetchResult{Path: path, Offset: off, Bytes: n, Start: t.now}}
	if t.starts <= t.failStarts {
		h.res.Err, h.res.End, h.done = fmt.Errorf("outage"), t.now, true
		return h
	}
	h.res.End = t.now + float64(n)*8/t.rate
	return h
}

func (t *fakeTransport) Wait(hs ...repro.Handle) {
	for _, h := range hs {
		fh := h.(*fakeHandle)
		if fh.res.End > t.now {
			t.now = fh.res.End
		}
		fh.done = true
	}
}

func (t *fakeTransport) StartWarmCtx(ctx context.Context, obj repro.Object, path repro.Path, off, n int64) repro.Handle {
	return t.StartCtx(ctx, obj, path, off, n)
}

// WaitAny completes the earliest-ending handle unless one is done already.
func (t *fakeTransport) WaitAny(hs ...repro.Handle) int {
	first := 0
	for i, h := range hs {
		if fh := h.(*fakeHandle); fh.done {
			return i
		} else if fh.res.End < hs[first].(*fakeHandle).res.End {
			first = i
		}
	}
	t.Wait(hs[first])
	return first
}

func TestClientRetryRecoversFromOutage(t *testing.T) {
	// Both probes of the first attempt fail; the retry succeeds.
	tr := &fakeTransport{rate: 1e6, failStarts: 2}
	c := repro.New(tr, repro.WithProbeBytes(10_000), repro.WithRetry(2, time.Millisecond))
	obj := repro.Object{Server: "s", Name: "o", Size: 100_000}
	out := c.SelectAndFetch(context.Background(), obj, []string{"r"})
	if out.Err != nil {
		t.Fatalf("retry did not recover: %v", out.Err)
	}
	if tr.starts <= 2 {
		t.Fatalf("%d starts; no second attempt made", tr.starts)
	}
}

func TestClientFailsWithoutRetry(t *testing.T) {
	tr := &fakeTransport{rate: 1e6, failStarts: 2}
	c := repro.New(tr, repro.WithProbeBytes(10_000))
	out := c.SelectAndFetch(context.Background(), repro.Object{Server: "s", Name: "o", Size: 100_000},
		[]string{"r"})
	if !errors.Is(out.Err, repro.ErrAllPathsFailed) {
		t.Fatalf("err = %v, want ErrAllPathsFailed", out.Err)
	}
	if tr.starts != 2 {
		t.Fatalf("%d starts, want 2 (no retry configured)", tr.starts)
	}
}

func TestClientDoesNotRetryCanceledOperations(t *testing.T) {
	tr := &fakeTransport{rate: 1e6, failStarts: 100}
	c := repro.New(tr, repro.WithProbeBytes(10_000), repro.WithRetry(5, time.Millisecond))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := c.SelectAndFetch(ctx, repro.Object{Server: "s", Name: "o", Size: 100_000}, []string{"r"})
	if out.Err == nil {
		t.Fatal("expected an error under a dead context")
	}
	if tr.starts != 2 {
		t.Fatalf("%d starts, want 2 (canceled operations must not retry)", tr.starts)
	}
}

func TestClientProbeBytesOption(t *testing.T) {
	tr := &fakeTransport{rate: 1e6}
	c := repro.New(tr, repro.WithProbeBytes(12_345))
	probes := c.Probe(context.Background(), repro.Object{Server: "s", Name: "o", Size: 1_000_000}, nil)
	if len(probes) != 1 {
		t.Fatalf("%d probes, want 1 (direct only)", len(probes))
	}
	if tr.lastBytes != 12_345 {
		t.Fatalf("probe size %d, want 12345", tr.lastBytes)
	}
	// The sequential form probes direct and every candidate, one at a
	// time, at the same configured size.
	seq := c.ProbeSequential(context.Background(), repro.Object{Server: "s", Name: "o", Size: 1_000_000}, []string{"r"})
	if len(seq) != 2 || tr.lastBytes != 12_345 {
		t.Fatalf("%d sequential probe results of %d bytes, want 2 of 12345", len(seq), tr.lastBytes)
	}
}

// stuckTransport only completes transfers through context death.
type stuckTransport struct{}

type stuckHandle struct {
	ctx  context.Context
	res  repro.FetchResult
	done bool
}

func (h *stuckHandle) Done() bool                { return h.done }
func (h *stuckHandle) Result() repro.FetchResult { return h.res }

func (t *stuckTransport) Now() float64 { return 0 }

func (t *stuckTransport) StartWarmCtx(ctx context.Context, obj repro.Object, path repro.Path, off, n int64) repro.Handle {
	return t.StartCtx(ctx, obj, path, off, n)
}

func (t *stuckTransport) StartCtx(ctx context.Context, obj repro.Object, path repro.Path, off, n int64) repro.Handle {
	return &stuckHandle{ctx: ctx, res: repro.FetchResult{Path: path, Offset: off, Bytes: n}}
}

func (t *stuckTransport) Wait(hs ...repro.Handle) {
	for _, h := range hs {
		sh := h.(*stuckHandle)
		if sh.done {
			continue
		}
		<-sh.ctx.Done()
		if errors.Is(sh.ctx.Err(), context.DeadlineExceeded) {
			sh.res.Err = fmt.Errorf("%w: %w", repro.ErrProbeTimeout, sh.ctx.Err())
		} else {
			sh.res.Err = fmt.Errorf("%w: %w", repro.ErrCanceled, sh.ctx.Err())
		}
		sh.done = true
	}
}

func (t *stuckTransport) WaitAny(hs ...repro.Handle) int {
	t.Wait(hs[0])
	return 0
}

func TestClientTimeoutBoundsStuckTransfer(t *testing.T) {
	c := repro.New(&stuckTransport{}, repro.WithProbeBytes(10_000),
		repro.WithTimeout(30*time.Millisecond))
	done := make(chan repro.Outcome, 1)
	go func() {
		done <- c.SelectAndFetch(context.Background(),
			repro.Object{Server: "s", Name: "o", Size: 100_000}, nil)
	}()
	select {
	case out := <-done:
		if !errors.Is(out.Err, repro.ErrProbeTimeout) {
			t.Fatalf("err = %v, want ErrProbeTimeout", out.Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("WithTimeout did not bound a stuck transfer")
	}
}

// TestClientPoolOptions checks WithPoolSize/WithIdleTTL reach the real
// transport and that the pool reports reuse through the facade — a
// second fetch on the same path must ride the first one's connection.
func TestClientPoolOptions(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Verify:  true,
	}
	c := repro.New(tr,
		repro.WithPoolSize(3),
		repro.WithIdleTTL(10*time.Second),
		repro.WithProbeBytes(50_000))
	defer tr.Close()
	if tr.MaxIdlePerPath != 3 || tr.IdleTTL != 10*time.Second {
		t.Fatalf("options not applied: MaxIdlePerPath=%d IdleTTL=%v",
			tr.MaxIdlePerPath, tr.IdleTTL)
	}

	obj := repro.Object{Server: "origin", Name: "big.bin", Size: 300_000}
	for i := 0; i < 2; i++ {
		out := c.SelectAndFetch(context.Background(), obj, nil)
		if out.Err != nil {
			t.Fatalf("fetch %d: %v", i, out.Err)
		}
	}
	// Each operation's remainder continues warm on the probe's connection,
	// and the second operation's probe can reuse the first's parked conn.
	if st := tr.PoolStats(); st.Reuses == 0 {
		t.Fatalf("no pool reuse across fetches: %+v", st)
	}
}

// progressRecorder is a facade-level ProgressObserver.
type progressRecorder struct {
	repro.BaseObserver
	chunks atomic.Int64
	bytes  atomic.Int64
}

func (p *progressRecorder) TransferProgress(e repro.ProgressEvent) {
	p.chunks.Add(1)
	p.bytes.Add(e.Chunk)
}

// TestClientStreamsProgressEvents checks the optional observer interface
// end to end: a client-attached ProgressObserver sees the streamed bytes,
// and the built-in metrics snapshot counts them.
func TestClientStreamsProgressEvents(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 2_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	rec := &progressRecorder{}
	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Verify:  true,
	}
	c := repro.New(tr, repro.WithObserver(rec), repro.WithProbeBytes(50_000))
	defer tr.Close()
	tr.Observer = c.Observer()

	obj := repro.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}
	out := c.SelectAndFetch(context.Background(), obj, nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if got := rec.bytes.Load(); got != obj.Size {
		t.Fatalf("observer saw %d streamed bytes, want %d", got, obj.Size)
	}
	if rec.chunks.Load() < 2 {
		t.Fatalf("only %d progress events for a 2 MB object", rec.chunks.Load())
	}
	if snap := c.Snapshot(); snap.BytesStreamed != obj.Size {
		t.Fatalf("metrics streamed %d bytes, want %d", snap.BytesStreamed, obj.Size)
	}
}

// TestClientCacheOptions checks the facade's cache wiring end to end:
// WithCacheSize/WithCacheTTL configure the underlying RealTransport,
// repeat fetches are served from the cache without origin traffic, and
// CacheStats surfaces the re-exported snapshot.
func TestClientCacheOptions(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Verify:  true,
	}
	c := repro.New(tr,
		repro.WithCacheSize(4<<20),
		repro.WithCacheTTL(time.Minute),
		repro.WithProbeBytes(50_000))
	defer tr.Close()
	if tr.CacheBytes != 4<<20 || tr.CacheTTL != time.Minute {
		t.Fatalf("options not applied: CacheBytes=%d CacheTTL=%v",
			tr.CacheBytes, tr.CacheTTL)
	}

	obj := repro.Object{Server: "origin", Name: "big.bin", Size: 300_000}
	if out := c.SelectAndFetch(context.Background(), obj, nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	egress := origin.BytesServed.Load()
	if out := c.SelectAndFetch(context.Background(), obj, nil); out.Err != nil {
		t.Fatal(out.Err)
	}
	if got := origin.BytesServed.Load(); got != egress {
		t.Fatalf("repeat fetch cost %d origin bytes despite cache", got-egress)
	}
	var st repro.CacheStats = c.CacheStats()
	if st.CapacityBytes != 4<<20 || st.Hits == 0 || st.Fills == 0 {
		t.Fatalf("cache stats: %+v", st)
	}
}
