package realnet

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/shaper"
)

func TestCancelClosesTransferPromptly(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 8_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 1e6}) // 8 MB would take ~64s
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Dial:    d.Dial,
	}

	ctx, cancel := context.WithCancel(context.Background())
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 8_000_000}
	h := tr.StartCtx(ctx, obj, core.Path{}, 0, 8_000_000)
	time.AfterFunc(100*time.Millisecond, cancel)

	start := time.Now()
	tr.Wait(h)
	elapsed := time.Since(start)

	res := h.Result()
	if !errors.Is(res.Err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", res.Err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("Wait took %v after cancellation; conn not closed?", elapsed)
	}
	if res.Streamed == 0 || res.Streamed >= 8_000_000 {
		t.Fatalf("streamed %d bytes before the cancellation, want some but not all", res.Streamed)
	}
}

func TestProbeRaceCancelsLosingConnections(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 400_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	fast := &relay.Relay{}
	fl, err := fast.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	slow := &relay.Relay{}
	sl, err := slow.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sl.Close()

	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 4e6})
	d.SetProfile(fl.Addr().String(), shaper.PathProfile{DownloadBps: 16e6})
	// The slow loser's 200 KB probe would take ~6.4s to drain; if losers
	// are canceled when the winner commits, the whole operation finishes
	// long before that.
	d.SetProfile(sl.Addr().String(), shaper.PathProfile{DownloadBps: 0.25e6})
	m := obs.NewMetrics()
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays: map[string]string{
			"fast": fl.Addr().String(),
			"slow": sl.Addr().String(),
		},
		Dial:   d.Dial,
		Verify: true,
	}

	obj := core.Object{Server: "origin", Name: "big.bin", Size: 400_000}
	start := time.Now()
	out := core.SelectAndFetch(context.Background(), tr, obj, []string{"slow", "fast"},
		core.Config{ProbeBytes: 200_000, Metrics: m})
	elapsed := time.Since(start)

	if out.Err != nil {
		t.Fatalf("outcome error: %v", out.Err)
	}
	if out.Selected.Via != "fast" {
		t.Fatalf("selected %v, want via fast", out.Selected)
	}
	if elapsed > 4*time.Second {
		t.Fatalf("operation took %v; losing probes drained instead of being canceled", elapsed)
	}
	if m.Snapshot().Aborts == 0 {
		t.Fatal("no loser cancellation accounted")
	}
}

func TestColdDialRetryWithBackoff(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 100_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	var dials atomic.Int64
	flaky := func(network, addr string) (net.Conn, error) {
		if dials.Add(1) <= maxRetries {
			return nil, fmt.Errorf("transient dial failure")
		}
		return net.Dial(network, addr)
	}
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Dial:    flaky,
	}

	obj := core.Object{Server: "origin", Name: "big.bin", Size: 100_000}
	h := tr.Start(obj, core.Path{}, 0, 100_000)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatalf("transfer failed despite retries: %v", err)
	}
	if got := len(h.Result().Retries); got != maxRetries {
		t.Fatalf("Retries = %d, want %d", got, maxRetries)
	}
	if got := dials.Load(); got != maxRetries+1 {
		t.Fatalf("%d dial attempts, want %d", got, maxRetries+1)
	}
}

func TestRetriesExhausted(t *testing.T) {
	var dials atomic.Int64
	tr := &Transport{
		Servers: map[string]string{"origin": "127.0.0.1:1"},
		Dial: func(string, string) (net.Conn, error) {
			dials.Add(1)
			return nil, fmt.Errorf("down")
		},
	}
	h := tr.Start(core.Object{Server: "origin", Name: "x", Size: 10}, core.Path{}, 0, 10)
	tr.Wait(h)
	if h.Result().Err == nil {
		t.Fatal("expected error once retries are exhausted")
	}
	if got := len(h.Result().Retries); got != maxRetries {
		t.Fatalf("Retries = %d, want %d", got, maxRetries)
	}
	if got := dials.Load(); got != maxRetries+1 {
		t.Fatalf("%d dial attempts, want %d", got, maxRetries+1)
	}
}

func TestTransferTimeoutOnStalledServer(t *testing.T) {
	// A server that accepts and then never responds: the transfer's
	// context deadline must fail the fetch with the typed error, promptly.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) { io.Copy(io.Discard, c) }(c) // read, never reply
		}
	}()

	tr := &Transport{Servers: map[string]string{"origin": l.Addr().String()}}
	ctx, cancel := context.WithTimeout(context.Background(), 150*time.Millisecond)
	defer cancel()
	start := time.Now()
	h := tr.StartCtx(ctx, core.Object{Server: "origin", Name: "x", Size: 1000}, core.Path{}, 0, 1000)
	tr.Wait(h)
	elapsed := time.Since(start)

	if !errors.Is(h.Result().Err, core.ErrProbeTimeout) {
		t.Fatalf("err = %v, want ErrProbeTimeout", h.Result().Err)
	}
	if elapsed > 3*time.Second {
		t.Fatalf("stalled transfer took %v to fail a 150ms deadline", elapsed)
	}
}

func TestDeadPathsReturnTypedErrorWithinDeadline(t *testing.T) {
	// Every path refers to a dead address: the operation must come back
	// quickly with ErrAllPathsFailed, not hang or return something vague.
	dead, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := dead.Addr().String()
	dead.Close()

	tr := &Transport{
		Servers: map[string]string{"origin": addr},
		Relays:  map[string]string{"r": addr},
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	out := core.SelectAndFetch(ctx, tr, core.Object{Server: "origin", Name: "x", Size: 1000},
		[]string{"r"}, core.Config{ProbeBytes: 500})
	if !errors.Is(out.Err, core.ErrAllPathsFailed) {
		t.Fatalf("err = %v, want ErrAllPathsFailed", out.Err)
	}
	if elapsed := time.Since(start); elapsed > 4*time.Second {
		t.Fatalf("dead-path operation took %v", elapsed)
	}
}

func TestDownloaderFailsOverWhenRelayKilledMidFetch(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 2_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	// The relay's path dies mid-download: once a connection has carried
	// 300 KB — past the 100 KB probe, inside the first 500 KB segment on
	// the warm connection — it is reset.
	rl, err := shaper.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	rl.SetFaults(shaper.Fault{At: 300_000, Do: shaper.Reset})
	go (&relay.Relay{}).Serve(rl)

	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 4e6})
	d.SetProfile(rl.Addr().String(), shaper.PathProfile{DownloadBps: 16e6})
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r": rl.Addr().String()},
		Dial:    d.Dial,
		Verify:  true,
	}

	dl := &core.Downloader{
		Transport:    tr,
		ProbeBytes:   100_000,
		SegmentBytes: 500_000,
		RefreshEvery: -1, // no voluntary re-races; only failure forces a switch
	}
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}
	res, err := dl.Download(context.Background(), obj, []string{"r"})
	if err != nil {
		t.Fatalf("download did not survive the relay dying: %v", err)
	}
	if res.Failovers == 0 {
		t.Fatal("relay was killed mid-fetch but no failover recorded")
	}
	if res.FinalPath().Via != core.Direct {
		t.Fatalf("final path %v, want direct after relay death", res.FinalPath())
	}
	var total int64
	for _, s := range res.Segments {
		total += s.Bytes
	}
	if total != obj.Size {
		t.Fatalf("segments cover %d bytes, want %d", total, obj.Size)
	}
}

func TestWaitAnyReturnsOnCancellation(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 8_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 1e6})
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Dial:    d.Dial,
	}
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 8_000_000}
	ctx, cancel := context.WithCancel(context.Background())
	ctx2, cancel2 := context.WithCancel(context.Background())
	h1 := tr.StartCtx(ctx, obj, core.Path{}, 0, 8_000_000)
	h2 := tr.StartCtx(ctx2, obj, core.Path{}, 0, 8_000_000)
	time.AfterFunc(100*time.Millisecond, cancel)

	start := time.Now()
	idx := tr.WaitAny(h1, h2)
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("WaitAny took %v after cancellation", elapsed)
	}
	if idx != 0 {
		t.Fatalf("WaitAny returned %d, want 0 (the canceled handle)", idx)
	}
	if !errors.Is(h1.Result().Err, core.ErrCanceled) {
		t.Fatalf("h1 err = %v, want ErrCanceled", h1.Result().Err)
	}
	// Reap the other transfer rather than letting it run to completion.
	cancel2()
	tr.Wait(h2)
}

// TestDialContextBound pins the dial bound: a ctx with no deadline of its
// own gets one dialTimeout from now, and a ctx that expires sooner keeps
// its deadline.
func TestDialContextBound(t *testing.T) {
	before := time.Now()
	ctx, cancel := dialContext(context.Background())
	defer cancel()
	dl, ok := ctx.Deadline()
	if !ok {
		t.Fatal("dial under a ctx with no deadline: no bound added")
	}
	if lo, hi := before.Add(dialTimeout), time.Now().Add(dialTimeout); dl.Before(lo) || dl.After(hi) {
		t.Fatalf("dial deadline %v, want within [%v, %v]", dl, lo, hi)
	}

	sooner, cancelSooner := context.WithTimeout(context.Background(), time.Second)
	defer cancelSooner()
	want, _ := sooner.Deadline()
	ctx2, cancel2 := dialContext(sooner)
	defer cancel2()
	if got, ok := ctx2.Deadline(); !ok || !got.Equal(want) {
		t.Fatalf("dial deadline under a sooner ctx = %v, want %v unchanged", got, want)
	}

	later, cancelLater := context.WithTimeout(context.Background(), 10*dialTimeout)
	defer cancelLater()
	ctx3, cancel3 := dialContext(later)
	defer cancel3()
	if got, _ := ctx3.Deadline(); got.After(time.Now().Add(dialTimeout)) {
		t.Fatalf("dial deadline under a later ctx = %v, want at most dialTimeout away", got)
	}
}

// TestDialConnAbandonsCustomDial pins what dialConn promises of a dialer
// that knows no context: a dead ctx returns at once, and a connection that
// arrives after the caller gave up is closed, not leaked.
func TestDialConnAbandonsCustomDial(t *testing.T) {
	gate := make(chan struct{})
	ours, theirs := net.Pipe()
	defer theirs.Close()
	tr := &Transport{
		Dial: func(string, string) (net.Conn, error) {
			<-gate
			return ours, nil
		},
	}
	// ctx expires sooner than the dial timeout would: its deadline is the
	// bound, with no timer added.
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	if _, err := tr.dialConn(ctx, "ignored"); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("dial under an expiring ctx: %v, want DeadlineExceeded", err)
	}
	// A canceled ctx, then the dials complete late: the connection is closed.
	ctx2, cancel2 := context.WithCancel(context.Background())
	cancel2()
	if _, err := tr.dialConn(ctx2, "ignored"); !errors.Is(err, context.Canceled) {
		t.Fatalf("dial under a canceled ctx: %v, want Canceled", err)
	}
	close(gate)
	theirs.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := theirs.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("abandoned connection: read %v, want EOF from its close", err)
	}
}
