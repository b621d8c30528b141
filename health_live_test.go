package repro_test

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"testing"
	"time"

	"repro"
	"repro/internal/daemon"
	"repro/internal/httpx"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// scrapeJSON GETs path from a debug server and decodes the JSON body.
func scrapeJSON(t *testing.T, addr, path string, v any) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := httpx.NewGet(path, addr).Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 200 {
		t.Fatalf("GET %s: status %d: %s", path, resp.Status, body)
	}
	if err := json.Unmarshal(body, v); err != nil {
		t.Fatalf("GET %s: bad JSON: %v\n%s", path, err, body)
	}
}

// TestHealthTelemetryTracksInducedDegradation is the live acceptance
// check for the path-health subsystem: on a loopback testbed, a relay
// path's telemetry — scraped from the same /debug/paths endpoint the
// daemons serve — must reflect an induced throughput collapse within one
// rolling window, and the damped state machine must walk healthy ->
// degraded -> down (collapse, then kill) without flapping.
func TestHealthTelemetryTracksInducedDegradation(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 512_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	// The relay's listener is its path: a rate set on it reaches
	// connections already open, and closing it kills the relay outright.
	rl, err := shaper.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	go (&relay.Relay{}).Serve(rl)

	// Each path's throughput samples must agree, probe and remainder
	// alike, or the monitor's fast/slow ratio reads noise: an unshaped
	// 32 KB loopback probe times the scheduler, and a dialed connection's
	// first 64 KiB pass as a burst. So every sample is rate-bound. The
	// relay starts at 64 Mb/s (~70 per sample). Direct's probe is set by
	// its 5 ms latency each way (~25 Mb/s) and its 480 KB remainder by
	// its 16 Mb/s rate (~19), so the healthy phase prefers the relay.
	rl.SetProfile(shaper.PathProfile{DownloadBps: 64e6})
	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 16e6, Latency: 5 * time.Millisecond})

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r": rl.Addr().String()},
		Dial:    d.Dial,
		Verify:  true,
	}
	defer tr.Close()

	// A short window so the test observes transitions quickly. The
	// MaxThroughput rule makes every probe run to completion: under the
	// default first-finished rule the losing (collapsed) probe would be
	// reaped as canceled, which is deliberately not a health sample.
	hm := repro.NewHealthMonitor(repro.HealthConfig{Window: 3, Buckets: 12})
	cfg := hm.Config() // default-filled (window, dwell)
	client := repro.New(tr,
		repro.WithProbeBytes(32_000),
		repro.WithRule(repro.MaxThroughput),
		repro.WithHealthMonitor(hm))

	// Serve the client's health through the shared daemon mux and watch
	// it exactly as an operator would: over HTTP.
	dl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dctx, dcancel := context.WithCancel(context.Background())
	srv := &httpx.Server{Mux: (&daemon.Daemon{Prefix: "client", Health: hm}).Mux()}
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeListener(dctx, dl) }()
	defer func() { dcancel(); <-done }()
	debugAddr := dl.Addr().String()

	obj := repro.Object{Server: "origin", Name: "big.bin", Size: 512_000}
	// mustOK distinguishes the phases: while the relay is up every
	// operation must succeed outright; once it is killed the outcome
	// carries the failed probe's error by design, and the fetch itself
	// still completing over direct is the assertion that matters.
	round := func(mustOK bool) {
		out := client.SelectAndFetch(context.Background(), obj, []string{"r"})
		if mustOK && out.Err != nil {
			t.Fatalf("select-and-fetch failed: %v", out.Err)
		}
		if !mustOK && out.Remainder.Err != nil {
			t.Fatalf("direct fallback fetch failed: %v", out.Remainder.Err)
		}
	}
	pathState := func() (repro.PathHealthInfo, repro.PathHealthInfo) {
		var snap repro.HealthSnapshot
		scrapeJSON(t, debugAddr, "/debug/paths", &snap)
		rp, ok := snap.Path("r")
		if !ok {
			t.Fatalf("path %q missing from /debug/paths: %+v", "r", snap)
		}
		dp, ok := snap.Path("direct")
		if !ok {
			t.Fatalf("path %q missing from /debug/paths: %+v", "direct", snap)
		}
		return rp, dp
	}

	// Phase A: establish the relay path as healthy, and hold it there
	// long enough to clear the dwell so the degraded transition is not
	// suppressed as a flap.
	start := time.Now()
	for {
		round(true)
		rp, _ := pathState()
		if rp.State == repro.HealthHealthy && time.Since(start) > 600*time.Millisecond {
			break
		}
		if time.Since(start) > 10*time.Second {
			t.Fatalf("relay path never became healthy: %+v", rp)
		}
	}

	// Phase B: collapse the relay path's throughput (requests still
	// succeed). The telemetry must report degraded within one window.
	rl.SetProfile(shaper.PathProfile{DownloadBps: 1e6})
	collapse := time.Now()
	for {
		round(true)
		rp, _ := pathState()
		if rp.State == repro.HealthDegraded {
			if rp.Score < 0.35 || rp.Score >= 0.75 {
				t.Errorf("degraded score %.3f outside the degraded band", rp.Score)
			}
			break
		}
		if rp.State == repro.HealthDown {
			t.Fatalf("collapse skipped degraded and went straight down: %+v", rp)
		}
		if time.Since(collapse) > 10*time.Second {
			t.Fatalf("degradation never reported: %+v", rp)
		}
	}
	if took := time.Since(collapse); took.Seconds() > cfg.Window {
		t.Errorf("degraded reported after %.2fs, want within one %vs window", took.Seconds(), cfg.Window)
	} else {
		t.Logf("degraded reported %.2fs after collapse (window %vs)", took.Seconds(), cfg.Window)
	}

	// Phase C: kill the relay outright; failures plus staleness must
	// drive the path down.
	rl.Close()
	killAt := time.Now()
	for {
		round(false)
		rp, _ := pathState()
		if rp.State == repro.HealthDown {
			break
		}
		if time.Since(killAt) > 15*time.Second {
			t.Fatalf("killed path never reported down: %+v", rp)
		}
	}

	// The full trajectory must be exactly healthy -> degraded -> down:
	// the hysteresis+dwell damping means no intermediate flapping ever
	// committed. (The initial unknown -> healthy adoption is not a
	// transition.)
	rp, dp := pathState()
	want := []struct{ from, to repro.HealthState }{
		{repro.HealthHealthy, repro.HealthDegraded},
		{repro.HealthDegraded, repro.HealthDown},
	}
	if len(rp.History) != len(want) {
		t.Fatalf("transition history = %+v, want exactly healthy->degraded->down", rp.History)
	}
	for i, w := range want {
		if rp.History[i].From != w.from || rp.History[i].To != w.to {
			t.Fatalf("transition %d = %s->%s, want %s->%s",
				i, rp.History[i].From, rp.History[i].To, w.from, w.to)
		}
	}
	if rp.Transitions != 2 {
		t.Fatalf("transitions = %d, want 2", rp.Transitions)
	}
	t.Logf("relay path: %d transitions, %d flaps suppressed", rp.Transitions, rp.FlapsSuppressed)

	// The direct path carried successes throughout and must still read
	// healthy — the monitor discriminates between paths.
	if dp.State != repro.HealthHealthy {
		t.Fatalf("direct path state = %s, want healthy (%+v)", dp.State, dp)
	}
}
