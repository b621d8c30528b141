package fleet

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/daemon"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/relay"
)

// staticSource is a hand-rolled fleet view for tests.
type staticSource struct {
	mu      sync.Mutex
	targets []Target
}

func (s *staticSource) Targets() []Target {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]Target(nil), s.targets...)
}

// fakeClock is an injectable, advanceable clock.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.now = c.now.Add(d)
}

// testRelay is one loopback fleet member: a forwarding relay plus the
// same daemon mux relayd serves, so the aggregator scrapes exactly what
// production exposes.
type testRelay struct {
	relay   *relay.Relay
	data    net.Listener
	metrics net.Listener
	stop    context.CancelFunc
}

func startTestRelay(t *testing.T) *testRelay {
	t.Helper()
	health := obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})
	r := relay.New(relay.WithHealthMonitor(health))
	dl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	d := &daemon.Daemon{
		Prefix: "relay",
		Prom:   r.WriteProm,
		Health: health,
	}
	ml, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	go (&httpx.Server{Mux: d.Mux()}).ServeListener(ctx, ml)
	tr := &testRelay{relay: r, data: dl, metrics: ml, stop: cancel}
	t.Cleanup(func() {
		cancel()
		dl.Close()
		ml.Close()
	})
	return tr
}

// fetchVia drives one absolute-form GET through a relay and returns the
// response status (0 on transport failure).
func fetchVia(t *testing.T, relayAddr, url, hostHdr string) int {
	t.Helper()
	conn, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := httpx.NewGet(url, hostHdr)
	if err := req.Write(conn); err != nil {
		return 0
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	return resp.Status
}

// deadAddr reserves a loopback address that refuses connections.
func deadAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	l.Close()
	return addr
}

// TestFleetAggregatorE2E is the acceptance path of the fleet plane:
// three live loopback relays serving real traffic, scraped over real
// HTTP; an induced upstream failure shows up in the fleet's worst-paths
// ranking after one scrape; a killed relay goes stale after the
// configured silence; and the merged snapshot both serves /debug/fleet
// through a registryd-style daemon mux and renders lint-clean fleet_*
// families.
func TestFleetAggregatorE2E(t *testing.T) {
	origin := relay.NewOriginServer()
	const objName = "fleet.bin"
	const objSize = 16 << 10
	origin.Put(objName, objSize)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	originAddr := ol.Addr().String()

	relays := map[string]*testRelay{
		"r0": startTestRelay(t),
		"r1": startTestRelay(t),
		"r2": startTestRelay(t),
	}
	perRelay := map[string]int{"r0": 3, "r1": 2, "r2": 1}
	for name, n := range perRelay {
		for i := 0; i < n; i++ {
			if status := fetchVia(t, relays[name].data.Addr().String(),
				"http://"+originAddr+"/"+objName, originAddr); status != 200 {
				t.Fatalf("%s fetch %d: status %d", name, i, status)
			}
		}
		// The latency observation and the health fold land after the
		// client has its last byte.
		relays[name].relay.WaitIdle()
	}

	src := &staticSource{}
	for name, tr := range relays {
		src.targets = append(src.targets, Target{
			Name:        name,
			Addr:        tr.data.Addr().String(),
			MetricsAddr: tr.metrics.Addr().String(),
			Health:      0.9,
		})
	}
	// One member the registry knows about but that exposes no metrics
	// address: tracked from registry state alone, permanently stale.
	src.targets = append(src.targets, Target{Name: "bare", Addr: "10.0.0.9:1"})

	clock := &fakeClock{now: time.Unix(1_700_000_000, 0)}
	agg := New(Config{
		Source:     src,
		Every:      time.Second,
		StaleAfter: 3 * time.Second,
		TopK:       4,
		Clock:      clock.Now,
	})

	ctx := context.Background()
	agg.ScrapeOnce(ctx)
	snap := agg.Snapshot()
	if len(snap.Relays) != 4 {
		t.Fatalf("tracked %d members, want 4", len(snap.Relays))
	}
	if snap.Live != 3 || snap.Stale != 1 {
		t.Fatalf("live/stale %d/%d, want 3/1 (the bare member has nothing to scrape)", snap.Live, snap.Stale)
	}
	if snap.ScrapeErrs != 0 {
		t.Fatalf("scrape errors %d on a healthy fleet", snap.ScrapeErrs)
	}
	if want := float64(3 + 2 + 1); snap.Requests != want {
		t.Fatalf("fleet requests %v, want %v", snap.Requests, want)
	}
	if want := float64(6 * objSize); snap.BytesRelayed != want {
		t.Fatalf("fleet bytes %v, want %v", snap.BytesRelayed, want)
	}
	if snap.ForwardLatency.Total != 6 {
		t.Fatalf("merged latency total %d, want 6", snap.ForwardLatency.Total)
	}
	for _, wp := range snap.WorstPaths {
		if wp.Path.Path != originAddr {
			t.Fatalf("unexpected fleet path %q, relays only talk to %q", wp.Path.Path, originAddr)
		}
	}
	for _, rs := range snap.Relays {
		if rs.Name == "bare" {
			if !rs.Stale || rs.Scraped || rs.AgeSeconds != -1 {
				t.Fatalf("bare member not reported never-scraped: %+v", rs)
			}
			continue
		}
		if rs.Stale || !rs.Scraped || rs.Err != "" {
			t.Fatalf("fresh relay %s misreported: %+v", rs.Name, rs)
		}
		if rs.Requests != float64(perRelay[rs.Name]) {
			t.Fatalf("%s requests %v, want %d", rs.Name, rs.Requests, perRelay[rs.Name])
		}
	}

	// Induce degradation: r0 starts forwarding to a dead upstream. The
	// failures fold into r0's path health, and the very next scrape must
	// surface that path at the top of the fleet-wide worst list.
	dead := deadAddr(t)
	for i := 0; i < 6; i++ {
		if status := fetchVia(t, relays["r0"].data.Addr().String(),
			"http://"+dead+"/x", dead); status == 200 {
			t.Fatal("fetch through a dead upstream succeeded")
		}
	}
	relays["r0"].relay.WaitIdle()
	clock.Advance(time.Second)
	agg.ScrapeOnce(ctx)
	snap = agg.Snapshot()
	if len(snap.WorstPaths) == 0 {
		t.Fatal("no worst paths after induced degradation")
	}
	worst := snap.WorstPaths[0]
	if worst.Relay != "r0" || worst.Path.Path != dead {
		t.Fatalf("worst path %s via %s, want the dead upstream %s via r0", worst.Path.Path, worst.Relay, dead)
	}
	if healthy := snap.WorstPaths[len(snap.WorstPaths)-1]; worst.Path.Score >= healthy.Path.Score {
		t.Fatalf("dead path score %v not below healthy %v", worst.Path.Score, healthy.Path.Score)
	}

	// Kill r1's metrics endpoint. The next scrape fails and records the
	// error, but the relay is not stale until StaleAfter of silence.
	relays["r1"].stop()
	relays["r1"].metrics.Close()
	clock.Advance(time.Second)
	agg.ScrapeOnce(ctx)
	snap = agg.Snapshot()
	var r1 RelayStatus
	for _, rs := range snap.Relays {
		if rs.Name == "r1" {
			r1 = rs
		}
	}
	if r1.Err == "" {
		t.Fatal("killed relay's scrape recorded no error")
	}
	if r1.Stale {
		t.Fatalf("r1 stale %vs after its last success, StaleAfter is 3s", r1.AgeSeconds)
	}
	if snap.ScrapeErrs == 0 {
		t.Fatal("fleet scrape error counter did not move")
	}

	// After StaleAfter of silence it is stale, and the fleet totals stop
	// counting its last-known numbers.
	clock.Advance(3 * time.Second)
	agg.ScrapeOnce(ctx)
	snap = agg.Snapshot()
	for _, rs := range snap.Relays {
		if rs.Name == "r1" && !rs.Stale {
			t.Fatalf("r1 not stale after %vs of silence", rs.AgeSeconds)
		}
	}
	if snap.Live != 2 || snap.Stale != 2 {
		t.Fatalf("live/stale %d/%d, want 2/2 (r1 and bare)", snap.Live, snap.Stale)
	}
	// r0 counts its 6 failed forwards too: 3+6, plus r2's 1.
	if want := float64(3 + 6 + 1); snap.Requests != want {
		t.Fatalf("fleet requests %v after r1 went stale, want %v", snap.Requests, want)
	}

	// The snapshot must serve /debug/fleet through the same daemon mux
	// registryd uses, and round-trip its JSON.
	d := &daemon.Daemon{Prefix: "registry", Fleet: func() any { return agg.Snapshot() }}
	fl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer fl.Close()
	srvCtx, cancel := context.WithCancel(ctx)
	defer cancel()
	go (&httpx.Server{Mux: d.Mux()}).ServeListener(srvCtx, fl)
	status, _, body, err := httpx.Get(ctx, nil, fl.Addr().String(), "/debug/fleet", nil, 5*time.Second)
	if err != nil || status != 200 {
		t.Fatalf("/debug/fleet: status %d err %v", status, err)
	}
	var served Snapshot
	if err := json.Unmarshal(body, &served); err != nil {
		t.Fatalf("/debug/fleet payload: %v", err)
	}
	if len(served.Relays) != 4 || served.Live != 2 {
		t.Fatalf("served fleet view %d relays / %d live, want 4 / 2", len(served.Relays), served.Live)
	}

	// And render lint-clean fleet_* families with the stale relay marked.
	p := obs.NewProm()
	snap.WriteProm(p)
	if err := obs.LintProm(p.Bytes()); err != nil {
		t.Fatalf("fleet families fail lint: %v\n%s", err, p.Bytes())
	}
	out := string(p.Bytes())
	for _, want := range []string{
		"fleet_relays 4\n",
		"fleet_relays_live 2\n",
		"fleet_relays_stale 2\n",
		`fleet_relay_stale{relay="r1"} 1`,
		`fleet_relay_stale{relay="r0"} 0`,
		"# TYPE fleet_forward_latency_seconds histogram",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("fleet exposition missing %q:\n%s", want, out)
		}
	}
}

// TestFleetScrapeTolerates404Paths covers members that expose /metrics
// but no /debug/paths (no health monitor): the scrape still counts as
// fresh, with no path view.
func TestFleetScrapeTolerates404Paths(t *testing.T) {
	r := relay.New() // no health monitor: daemon serves no /debug/paths
	dl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer dl.Close()
	d := &daemon.Daemon{Prefix: "relay", Prom: r.WriteProm}
	ml, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go (&httpx.Server{Mux: d.Mux()}).ServeListener(ctx, ml)

	src := &staticSource{targets: []Target{{Name: "plain", Addr: dl.Addr().String(),
		MetricsAddr: ml.Addr().String()}}}
	agg := New(Config{Source: src, Every: time.Second})
	agg.ScrapeOnce(ctx)
	snap := agg.Snapshot()
	if snap.Live != 1 || snap.ScrapeErrs != 0 {
		t.Fatalf("pathless relay scrape live=%d errs=%d, want 1/0", snap.Live, snap.ScrapeErrs)
	}
	if len(snap.Relays[0].Paths) != 0 || len(snap.WorstPaths) != 0 {
		t.Fatalf("pathless relay reported paths: %+v", snap.Relays[0].Paths)
	}
}

// TestFleetConfigDefaults pins the documented defaulting rules.
func TestFleetConfigDefaults(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.Every != 5*time.Second {
		t.Fatalf("Every default %v", cfg.Every)
	}
	if cfg.Timeout != 5*time.Second {
		t.Fatalf("Timeout default %v", cfg.Timeout)
	}
	if cfg.StaleAfter != 15*time.Second {
		t.Fatalf("StaleAfter default %v", cfg.StaleAfter)
	}
	if cfg.TopK != 10 {
		t.Fatalf("TopK default %d", cfg.TopK)
	}
	if cfg.Clock == nil {
		t.Fatal("Clock default nil")
	}
	long := Config{Every: time.Minute}.withDefaults()
	if long.Timeout != 5*time.Second {
		t.Fatalf("Timeout not capped at 5s: %v", long.Timeout)
	}
	short := Config{Every: 100 * time.Millisecond}.withDefaults()
	if short.Timeout != 100*time.Millisecond {
		t.Fatalf("Timeout %v, want the shorter cadence", short.Timeout)
	}
}
