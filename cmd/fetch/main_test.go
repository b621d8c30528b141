package main

import (
	"bytes"
	"context"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro"
	"repro/internal/daemon"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/registry"
	"repro/internal/relay"
)

// testRelay is one loopback fleet member: a forwarding relay plus the
// debug mux relayd serves, with the same /debug/vars counters.
type testRelay struct {
	relay   *relay.Relay
	data    net.Listener
	metrics net.Listener
	stop    context.CancelFunc
}

func startTestRelay(t *testing.T, health *obs.HealthMonitor) *testRelay {
	t.Helper()
	var opts []relay.Option
	if health != nil {
		opts = append(opts, relay.WithHealthMonitor(health))
	}
	r := relay.New(opts...)
	dl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon.Daemon{
		Prefix: "relay",
		Prom:   r.WriteProm,
		Health: health,
		Vars: func() any {
			return map[string]any{"requests": r.Requests.Load(), "bytes_relayed": r.BytesRelayed.Load()}
		},
	}
	ml, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go (&httpx.Server{Mux: d.Mux()}).ServeListener(ctx, ml)
	t.Cleanup(func() {
		cancel()
		dl.Close()
		ml.Close()
	})
	return &testRelay{relay: r, data: dl, metrics: ml, stop: cancel}
}

// TestFleetReadE2E drives -fleet end to end: a live registry lists three
// loopback relays that served real traffic plus one member without a
// metrics address; r0 then forwards to a dead upstream, r1's metrics
// listener is closed, and r2 runs without a health monitor. The table
// must carry one row per listed entry, r1's error in its own row, totals
// over the relays that answered, and the dead path ranked worst.
func TestFleetReadE2E(t *testing.T) {
	origin := relay.NewOriginServer()
	const objName, objSize = "fleet.bin", 16 << 10
	origin.Put(objName, objSize)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	originAddr := ol.Addr().String()

	reg := &registry.Server{}
	rl, err := reg.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	regAddr := rl.Addr().String()

	ctx := context.Background()
	rc := registry.NewClient(regAddr, registry.WithTimeout(2*time.Second))
	defer rc.Close()
	relays := map[string]*testRelay{
		"r0": startTestRelay(t, obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})),
		"r1": startTestRelay(t, obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})),
		"r2": startTestRelay(t, nil),
	}
	perRelay := map[string]int{"r0": 3, "r1": 2, "r2": 1}
	for name, tr := range relays {
		for i := 0; i < perRelay[name]; i++ {
			if _, err := relay.FetchVia(nil, tr.data.Addr().String(), originAddr, objName, 0, objSize); err != nil {
				t.Fatalf("%s fetch %d: %v", name, i, err)
			}
		}
		if err := rc.RegisterFull(ctx, name, tr.data.Addr().String(), tr.metrics.Addr().String(), time.Minute, 0.9); err != nil {
			t.Fatal(err)
		}
	}
	if err := rc.RegisterHealth(ctx, "bare", "10.0.0.9:1", time.Minute, 0.5); err != nil {
		t.Fatal(err)
	}

	// r0's upstream dies: six failed forwards fold into its path health.
	dl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	dead := dl.Addr().String()
	dl.Close()
	for i := 0; i < 6; i++ {
		if _, err := relay.FetchVia(nil, relays["r0"].data.Addr().String(), dead, "x", 0, 1); err == nil {
			t.Fatal("fetch through a dead upstream succeeded")
		}
	}
	// r1 stops answering on its metrics address.
	relays["r1"].stop()
	relays["r1"].metrics.Close()
	// The counters, latency and health folds land after the last byte.
	for _, tr := range relays {
		tr.relay.WaitIdle()
	}

	entries, err := resolveTargets(ctx, "all", regAddr, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 4 {
		t.Fatalf("registry listed %d entries, want 4", len(entries))
	}
	views := readFleet(ctx, entries, 2*time.Second)
	var out bytes.Buffer
	printFleet(&out, views)
	t.Logf("fleet table:\n%s", out.String())

	rows := map[string]string{}
	for _, line := range strings.Split(out.String(), "\n") {
		if f := strings.Fields(line); len(f) > 0 && (relays[f[0]] != nil || f[0] == "bare") && !strings.Contains(line, "score") {
			rows[f[0]] = line
		}
	}
	if len(rows) != 4 {
		t.Fatalf("table has rows for %v, want r0 r1 r2 bare", rows)
	}
	if !strings.Contains(rows["r1"], "error: ") {
		t.Fatalf("r1 row carries no error: %q", rows["r1"])
	}
	if !strings.Contains(rows["bare"], "no metrics address") {
		t.Fatalf("bare row: %q", rows["bare"])
	}
	for _, name := range []string{"r0", "r2"} {
		if strings.Contains(rows[name], "error") {
			t.Fatalf("%s row reports an error: %q", name, rows[name])
		}
	}

	// Totals sum the relays that answered: r0's 3+6 requests and r2's 1.
	var requests, relayed float64
	for _, v := range views {
		switch v.Name {
		case "r1", "bare":
		case "r2":
			if v.err != nil || len(v.paths) != 0 {
				t.Fatalf("relay without a health monitor: err %v, paths %+v", v.err, v.paths)
			}
			fallthrough
		default:
			requests += v.vars.Requests
			relayed += v.vars.BytesRelayed
		}
	}
	if requests != 3+6+1 || relayed != 4*objSize {
		t.Fatalf("answering relays hold %v requests / %v bytes, want 10 / %d", requests, relayed, 4*objSize)
	}
	wantTotals := fmt.Sprintf("totals (2 of 4 relays answered): %.0f requests, %.0f bytes relayed\n", requests, relayed)
	if !strings.Contains(out.String(), wantTotals) {
		t.Fatalf("table lacks %q", wantTotals)
	}

	// Worst paths: r0's dead upstream first, scoring below r0's healthy
	// origin path; r2 has no path view to contribute.
	_, worst, ok := strings.Cut(out.String(), "worst paths:\n")
	if !ok {
		t.Fatal("no worst paths printed")
	}
	var ranked [][]string
	for _, line := range strings.Split(strings.TrimSpace(worst), "\n") {
		ranked = append(ranked, strings.Fields(line))
	}
	score := func(f []string) float64 {
		v, err := strconv.ParseFloat(f[4], 64)
		if err != nil {
			t.Fatalf("worst-path row %v: %v", f, err)
		}
		return v
	}
	if first := ranked[0]; first[0] != "r0" || first[1] != dead {
		t.Fatalf("worst path %v, want the dead upstream %s via r0", first, dead)
	}
	last := ranked[len(ranked)-1]
	if last[1] != originAddr || score(ranked[0]) >= score(last) {
		t.Fatalf("dead path scores %v, not below the healthy path %v", ranked[0], last)
	}
	for _, f := range ranked {
		if f[0] != "r0" {
			t.Fatalf("worst path from %s; only r0 answered with a path view: %v", f[0], ranked)
		}
	}
}

// TestFleetReadToleratesMissingPaths reads a relay that runs without a
// health monitor: its debug mux serves no /debug/paths (404), which must
// read as an answering relay with no path view, not as an error.
func TestFleetReadToleratesMissingPaths(t *testing.T) {
	tr := startTestRelay(t, nil)
	ctx := context.Background()
	entries, err := resolveTargets(ctx, tr.metrics.Addr().String(), "", 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	views := readFleet(ctx, entries, 2*time.Second)
	if len(views) != 1 || views[0].err != nil || len(views[0].paths) != 0 {
		t.Fatalf("pathless relay read as %+v", views)
	}
	var out bytes.Buffer
	printFleet(&out, views)
	if s := out.String(); strings.Contains(s, "error") || strings.Contains(s, "worst paths") ||
		!strings.Contains(s, "totals (1 of 1 relays answered)") {
		t.Fatalf("pathless relay table:\n%s", s)
	}
}

// TestResolveTargets pins the -fleet/-bundle target grammar: "all", one
// relay's name, a literal metrics host:port, and the errors.
func TestResolveTargets(t *testing.T) {
	reg := &registry.Server{}
	l, err := reg.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx := context.Background()
	rc := registry.NewClient(l.Addr().String())
	defer rc.Close()
	for _, name := range []string{"a", "b"} {
		if err := rc.RegisterFull(ctx, name, "10.0.0.1:1", "10.0.0.1:2", time.Minute, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	for arg, want := range map[string]int{"all": 2, "b": 1} {
		got, err := resolveTargets(ctx, arg, l.Addr().String(), time.Second)
		if err != nil || len(got) != want {
			t.Fatalf("%s: %d entries, err %v; want %d", arg, len(got), err, want)
		}
	}
	got, err := resolveTargets(ctx, "127.0.0.1:9", "", time.Second)
	if err != nil || len(got) != 1 || got[0].MetricsAddr != "127.0.0.1:9" || got[0].Health >= 0 {
		t.Fatalf("literal host:port resolved to %+v, %v", got, err)
	}
	if _, err := resolveTargets(ctx, "zz", l.Addr().String(), time.Second); err == nil {
		t.Fatal("an unlisted relay name resolved")
	}
	if _, err := resolveTargets(ctx, "a", "", time.Second); err == nil {
		t.Fatal("a relay name without -registry resolved")
	}
}

// TestPrintBundlesListing drives the -bundle listing against a loopback
// relay wired as relayd wires it: the health monitor's transitions feed
// the trigger engine, and the daemon serves the engine on /debug/bundle.
// Two forwards succeed, the origin goes away, and two failed forwards walk
// the upstream path healthy -> down, which fires one health-down bundle.
// The listing must print the relay's header and that bundle's row.
func TestPrintBundlesListing(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("b.bin", 4096)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	originAddr := ol.Addr().String()

	// The monitor runs on a settable clock, so the failures land a whole
	// window after the successes without the test sleeping.
	var sec atomic.Int64
	var engine *flight.Engine
	rec := flight.NewRecorder(16, false)
	mon := obs.NewHealthMonitor(obs.HealthConfig{
		Clock:        func() float64 { return float64(sec.Load()) },
		OnTransition: func(path string, tr obs.HealthTransition) { engine.FireHealth(path, tr) },
	})
	engine = flight.NewEngine(flight.TriggerConfig{Recorder: rec})
	r := relay.New(relay.WithHealthMonitor(mon), relay.WithFlight(rec))
	dl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	d := &daemon.Daemon{Prefix: "relay", Prom: r.WriteProm, Health: mon, Flight: rec, Bundles: engine}
	ml, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go (&httpx.Server{Mux: d.Mux()}).ServeListener(ctx, ml)

	for i := 0; i < 2; i++ {
		if _, err := relay.FetchVia(nil, dl.Addr().String(), originAddr, "b.bin", 0, 4096); err != nil {
			t.Fatal(err)
		}
	}
	// The successes fold (at t=0) before the clock moves on.
	r.WaitIdle()
	ol.Close()
	sec.Store(100)
	for i := 0; i < 2; i++ {
		if _, err := relay.FetchVia(nil, dl.Addr().String(), originAddr, "b.bin", 0, 4096); err == nil {
			t.Fatal("fetch through a closed origin succeeded")
		}
	}
	// The folds (and with them the trigger) land after the last byte;
	// Close then drains the engine's build queue.
	r.WaitIdle()
	engine.Close()

	var out bytes.Buffer
	target := repro.RegistryEntry{Name: "r1", MetricsAddr: ml.Addr().String()}
	printBundles(ctx, &out, []repro.RegistryEntry{target}, "", 2*time.Second)
	t.Logf("bundle listing:\n%s", out.String())
	lines := strings.Split(strings.TrimSuffix(out.String(), "\n"), "\n")
	wantHead := fmt.Sprintf("r1 (%s): 1 bundles  fired 1  suppressed 0  dropped 0  write-failures 0", ml.Addr())
	if len(lines) != 2 || lines[0] != wantHead {
		t.Fatalf("listing:\n%s\nwant the header %q and one row", out.String(), wantHead)
	}
	row := strings.Fields(lines[1])
	// name, reason, "path", path, "at", time, events, "events", traces, "traces"
	if len(row) != 10 || row[0] != "bundle-000001-health-down" || row[1] != "health-down" ||
		row[3] != originAddr || row[6] != "4" || row[7] != "events" {
		t.Fatalf("bundle row %q: want bundle-000001-health-down on %s with the path's 4 events", lines[1], originAddr)
	}
}
