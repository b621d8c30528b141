package realnet

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// testbed spins up one origin and two relays on loopback with shaped
// client paths: the direct path is slow, relay "fast" is quick, relay
// "slow" is slower than direct.
func testbed(t *testing.T) (*Transport, func()) {
	t.Helper()
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 2_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	fast := &relay.Relay{}
	fl, err := fast.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	slow := &relay.Relay{}
	sl, err := slow.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 4e6})  // direct: 4 Mb/s
	d.SetProfile(fl.Addr().String(), shaper.PathProfile{DownloadBps: 16e6}) // fast relay
	d.SetProfile(sl.Addr().String(), shaper.PathProfile{DownloadBps: 1e6})  // slow relay

	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays: map[string]string{
			"fast": fl.Addr().String(),
			"slow": sl.Addr().String(),
		},
		Dial:   d.Dial,
		Verify: true,
	}
	cleanup := func() {
		ol.Close()
		fl.Close()
		sl.Close()
	}
	return tr, cleanup
}

func TestDirectTransfer(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}
	h := tr.Start(obj, core.Path{}, 0, 100_000)
	tr.Wait(h)
	res := h.Result()
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	if res.Throughput() <= 0 {
		t.Fatal("no throughput measured")
	}
}

// TestSelectionPicksFastRelay races 300 KB probes. Each path's bucket
// lets its first 64 KiB through unshaped, so a 100 KB probe put only
// ~52 ms of wall time between the fast relay (~17 ms) and direct
// (~69 ms), which one scheduling stall under -race on a loaded host
// could close; the shaped 234 KB of a 300 KB probe put ~350 ms there
// (~117 ms against ~469 ms).
func TestSelectionPicksFastRelay(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 600_000}
	out := core.SelectAndFetch(context.Background(), tr, obj, []string{"slow", "fast"}, core.Config{ProbeBytes: 300_000})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Selected.Via != "fast" {
		var probes strings.Builder
		for _, p := range out.Probes {
			fmt.Fprintf(&probes, "\n  %v: started +%.1f ms, took %.1f ms, err %v",
				p.Path, (p.Start-out.Start)*1e3, p.Duration()*1e3, p.Err)
		}
		t.Fatalf("selected %v, want via fast (16 Mb/s vs 4 direct vs 1 slow); probes:%s", out.Selected, probes.String())
	}
	if out.Throughput() <= 0 {
		t.Fatal("no overall throughput")
	}
}

func TestSelectionPrefersDirectOverSlowRelay(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 400_000}
	out := core.SelectAndFetch(context.Background(), tr, obj, []string{"slow"}, core.Config{ProbeBytes: 100_000})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if !out.Selected.IsDirect() {
		t.Fatalf("selected %v, want direct (4 Mb/s vs 1 Mb/s relay)", out.Selected)
	}
}

func TestContentVerification(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}
	h := tr.Start(obj, core.Path{Via: "fast"}, 50_000, 75_000)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatalf("verified relay fetch failed: %v", err)
	}
}

func TestUnknownServerAndRelay(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	h := tr.Start(core.Object{Server: "nope", Name: "x", Size: 10}, core.Path{}, 0, 10)
	tr.Wait(h)
	if h.Result().Err == nil {
		t.Fatal("unknown server not reported")
	}
	h = tr.Start(core.Object{Server: "origin", Name: "big.bin", Size: 10}, core.Path{Via: "ghost"}, 0, 10)
	tr.Wait(h)
	if h.Result().Err == nil {
		t.Fatal("unknown relay not reported")
	}
}

func TestShortObjectError(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	// Range beyond the object must surface an error, not hang.
	h := tr.Start(core.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}, core.Path{}, 1_999_999, 500)
	done := make(chan struct{})
	go func() {
		tr.Wait(h)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("wait hung on bad range")
	}
	if h.Result().Err == nil {
		t.Fatal("expected range error")
	}
}

func TestNowMonotone(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	a := tr.Now()
	time.Sleep(10 * time.Millisecond)
	b := tr.Now()
	if b <= a {
		t.Fatalf("clock not monotone: %v -> %v", a, b)
	}
}

func TestConcurrentProbesWallClock(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	// Both relays at 1 Mb/s. A Dialer connection's buckets start full
	// with a 64 KiB burst (shaper.PathProfile), so each 200 KB probe is
	// held to its path's rate for the rest: ~1.08 s. Run together, the
	// probing phase takes about one probe's time; one after the other,
	// the sum. Every probe is measured under MaxThroughput, and the
	// unshaped direct path wins, so the remainder is quick.
	const bps, probe, burst = 1e6, 200_000, 64 << 10
	d := shaper.NewDialer()
	for _, addr := range tr.Relays {
		d.SetProfile(addr, shaper.PathProfile{DownloadBps: bps})
	}
	tr.Dial = d.Dial
	one := time.Duration((probe - burst) * 8 / bps * float64(time.Second))
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}
	out := core.Race(context.Background(), tr, obj, []string{"fast", "slow"},
		core.Config{ProbeBytes: probe, Rule: core.MaxThroughput}).Fetch()
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	for _, p := range out.Probes {
		if p.Err != nil {
			t.Fatalf("probe %v failed: %v", p.Path, p.Err)
		}
	}
	elapsed := time.Duration((out.ProbeEnd - out.Start) * float64(time.Second))
	if elapsed < one || elapsed >= 2*one {
		t.Fatalf("probe race took %v; want at least one probe's %v and less than both in turn", elapsed, one)
	}
}

func TestStat(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	size, err := tr.StatCtx(context.Background(), "origin", "big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if size != 2_000_000 {
		t.Fatalf("size = %d, want 2000000", size)
	}
	if _, err := tr.StatCtx(context.Background(), "nope", "big.bin"); err == nil {
		t.Fatal("unknown server should fail")
	}
	if _, err := tr.StatCtx(context.Background(), "origin", "ghost"); err == nil {
		t.Fatal("unknown object should fail")
	}
}

func TestMiniCampaignSelectionTracksConditions(t *testing.T) {
	// A small real-TCP measurement campaign: the direct path's emulated
	// bandwidth flips between fast and slow across rounds; the selection
	// must follow it. This exercises the paper's whole loop (probe,
	// select, fetch, account) over live sockets.
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 500_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	r := &relay.Relay{}
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	d := shaper.NewDialer()
	d.SetProfile(rl.Addr().String(), shaper.PathProfile{DownloadBps: 4e6}) // relay fixed
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r": rl.Addr().String()},
		Dial:    d.Dial,
		Verify:  true,
	}
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 500_000}
	m := obs.NewMetrics()
	for round := 0; round < 4; round++ {
		directFast := round%2 == 0
		rate := 12e6
		if !directFast {
			rate = 1e6
		}
		d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: rate})
		out := core.SelectAndFetch(context.Background(), tr, obj, []string{"r"}, core.Config{ProbeBytes: 150_000, Metrics: m})
		if out.Err != nil {
			t.Fatalf("round %d: %v", round, out.Err)
		}
		if directFast && out.SelectedIndirect() {
			t.Errorf("round %d: picked relay while direct was 12 Mb/s", round)
		}
		if !directFast && !out.SelectedIndirect() {
			t.Errorf("round %d: picked direct while it was 1 Mb/s", round)
		}
	}
	if got := m.Path("r").Utilization; got != 0.5 {
		t.Fatalf("relay utilization %.2f, want 0.50", got)
	}
}

func TestWarmReuseSkipsHandshake(t *testing.T) {
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

	// Cold fetch opens a connection and parks it.
	h := tr.Start(obj, core.Path{}, 0, 100_000)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatal(err)
	}
	cold := origin.Conns.Load()
	if cold < 1 {
		t.Fatal("no connection accounted")
	}

	// Warm continuation must reuse the parked connection: the origin's
	// connection count stays flat.
	h2 := tr.StartWarm(obj, core.Path{}, 100_000, 200_000)
	tr.Wait(h2)
	if err := h2.Result().Err; err != nil {
		t.Fatal(err)
	}
	if got := origin.Conns.Load(); got != cold {
		t.Fatalf("warm fetch opened a new connection: %d -> %d", cold, got)
	}

	// A cold fetch always dials.
	h3 := tr.Start(obj, core.Path{}, 0, 50_000)
	tr.Wait(h3)
	if got := origin.Conns.Load(); got != cold+1 {
		t.Fatalf("cold fetch did not dial: %d -> %d", cold, got)
	}
}

func TestWarmReuseThroughRelay(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	r := &relay.Relay{}
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r": rl.Addr().String()},
		Verify:  true,
	}
	defer tr.Close()
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 1_000_000}
	h := tr.Start(obj, core.Path{Via: "r"}, 0, 100_000)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatal(err)
	}
	h2 := tr.StartWarm(obj, core.Path{Via: "r"}, 100_000, 300_000)
	tr.Wait(h2)
	if err := h2.Result().Err; err != nil {
		t.Fatal(err)
	}
	if got := r.Requests.Load(); got != 2 {
		t.Fatalf("relay handled %d requests, want 2 (both on one client conn)", got)
	}
	// Warm means warm on both legs, as httpsim models it: the relay kept
	// the probe's upstream connection for the continuation.
	if got := origin.Conns.Load(); got != 1 {
		t.Fatalf("origin saw %d connections, want the continuation on the probe's", got)
	}
	// A probe is cold end to end.
	h3 := tr.Start(obj, core.Path{Via: "r"}, 0, 100_000)
	tr.Wait(h3)
	if err := h3.Result().Err; err != nil {
		t.Fatal(err)
	}
	if got := origin.Conns.Load(); got != 2 {
		t.Fatalf("origin saw %d connections after a second probe, want 2", got)
	}
}

func TestWarmFallsBackWhenConnStale(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
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
	// Kill the parked connections from under the pool.
	p := tr.idlePool()
	p.mu.Lock()
	for _, list := range p.idle {
		for _, e := range list {
			e.pc.conn.Close()
		}
	}
	p.mu.Unlock()
	h2 := tr.StartWarm(obj, core.Path{}, 50_000, 50_000)
	tr.Wait(h2)
	if err := h2.Result().Err; err != nil {
		t.Fatalf("stale-connection fallback failed: %v", err)
	}
}

// TestWarmFetchAllocCeiling enforces the warm path's allocation budget
// where it cannot drift (the benchmark ladder's
// realnet.warm_allocs_per_fetch prices the same call): one verified warm
// fetch, origin included, with the buffer pools warm. The ceiling is the
// same at 128 KiB and at 16 MiB: the body streams through pooled
// buffers, so allocations do not scale with object size. Measured: 15 at
// both sizes, with the origin's request head and the client's response
// head recycled by their readers.
func TestWarmFetchAllocCeiling(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what is Put: there is no ceiling to hold")
	}
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 1<<30)
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
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 1 << 30}
	fetch := func(n int64) {
		h := tr.StartWarm(obj, core.Path{}, 0, n)
		tr.Wait(h)
		if err := h.Result().Err; err != nil {
			t.Fatal(err)
		}
	}
	fetch(128 << 10) // dials; every measured fetch reuses the connection
	for _, c := range []struct {
		name string
		size int64
		runs int
	}{{"128K", 128 << 10, 100}, {"16M", 16 << 20, 10}} {
		got := testing.AllocsPerRun(c.runs, func() { fetch(c.size) })
		if got > 20 {
			t.Errorf("warm %s fetch: %v allocs, want <= 20", c.name, got)
		} else {
			t.Logf("warm %s fetch: %v allocs", c.name, got)
		}
	}
	if s := tr.PoolStats(); s.Misses != 1 {
		t.Fatalf("pool %+v: the measured fetches were not warm", s)
	}
}

// TestSelectAndFetchAllocCeiling enforces the whole operation's
// allocation budget: one 128 KiB core.SelectAndFetch racing a slowed
// direct path against two relays, every hop in this process and counted
// — three cold dials, the losers' cancellation, the relays' forwards, the
// origin's serves, the warm remainder. The benchmark's small_select runs
// the same operation through the facade. Measured: 227–228 allocations
// per operation, on a 2-vCPU x86-64 Linux host with Go 1.24; the ceiling
// is that plus 10 %.
func TestSelectAndFetchAllocCeiling(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what is Put: there is no ceiling to hold")
	}
	const size = 128 << 10
	origin := relay.NewOriginServer()
	origin.Put("obj.bin", size)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	relays := map[string]string{}
	for _, name := range []string{"r1", "r2"} {
		rl, err := relay.New().ServeAddr("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer rl.Close()
		relays[name] = rl.Addr().String()
	}
	// The direct path is slowed so that a relay wins the races, as in the
	// benchmark: on equal loopback paths the winner, and with it the count,
	// would be a coin toss. (A direct win on a starved host only costs
	// fewer allocations: it has no relay hop.)
	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{Latency: 20 * time.Millisecond, DownloadBps: 80e6})
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  relays,
		Dial:    d.Dial,
		Verify:  true,
	}
	defer tr.Close()
	obj := core.Object{Server: "origin", Name: "obj.bin", Size: size}
	op := func() {
		out := core.SelectAndFetch(context.Background(), tr, obj, []string{"r1", "r2"}, core.Config{})
		if out.Err != nil {
			t.Fatal(out.Err)
		}
	}
	for i := 0; i < 20; i++ {
		op() // warm the pools
	}
	if got := testing.AllocsPerRun(200, op); got > 250 {
		t.Errorf("SelectAndFetch: %v allocs per operation, want <= 250", got)
	} else {
		t.Logf("SelectAndFetch: %v allocs per operation", got)
	}
}
