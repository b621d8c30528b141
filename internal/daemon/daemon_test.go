package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"strings"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/objcache"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/registry"
	"repro/internal/relay"
)

// scrape GETs one page from a debug server.
func scrape(t *testing.T, addr, path string) (int, []byte) {
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
	return resp.Status, body
}

// serveDaemon runs d's debug mux for the test's lifetime.
func serveDaemon(t *testing.T, d *Daemon) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	srv := &httpx.Server{Mux: d.Mux()}
	go func() { defer close(done); srv.ServeListener(ctx, l) }()
	t.Cleanup(func() { cancel(); <-done })
	return l.Addr().String()
}

// TestAllDaemonMetricsPagesLint is the e2e exposition check: one
// loopback run with a live origin, relay, and registry — assembled
// through the same Daemon structs the cmd binaries use — drives real
// transfers through the relay, then scrapes /metrics from all three
// debug servers and passes every page through LintProm. /debug/vars,
// /debug/paths, and /debug/slo must parse as JSON alongside.
func TestAllDaemonMetricsPagesLint(t *testing.T) {
	// Origin with a health monitor keyed by object.
	origin := relay.NewOriginServer()
	origin.Put("obj.bin", 1<<20)
	origin.Health = obs.NewHealthMonitor(obs.HealthConfig{Window: 10, Buckets: 10, Clock: obs.WallClock()})
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	// Relay with health + SLO + cache + flight recorder, built through
	// the options API the relayd binary uses.
	relaySLO := obs.NewSLOTracker(obs.SLOConfig{})
	relayFlight := flight.NewRecorder(flight.Config{Ring: 64})
	relayBundles := flight.NewEngine(flight.TriggerConfig{Recorder: relayFlight})
	defer relayBundles.Close()
	r := relay.New(
		relay.WithHealthMonitor(obs.NewHealthMonitor(obs.HealthConfig{
			Window: 10, Buckets: 10, Clock: obs.WallClock(), SLO: relaySLO,
		})),
		relay.WithCache(16<<20),
		relay.WithVerifier(relay.VerifyRange),
		relay.WithFlight(relayFlight),
	)
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	// Registry holding the relay.
	reg := &registry.Server{}
	gl, err := reg.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer gl.Close()
	if err := registry.NewClient(gl.Addr().String()).RegisterHealth(context.Background(), "r1", rl.Addr().String(), time.Minute, 0.9); err != nil {
		t.Fatal(err)
	}

	// Drive real traffic: direct fetches and relayed fetches, plus one
	// relayed failure (unknown object) so error counters move.
	for i := 0; i < 3; i++ {
		if _, err := relay.Fetch(nil, ol.Addr().String(), "obj.bin", 0, 50000); err != nil {
			t.Fatal(err)
		}
		if _, err := relay.FetchVia(nil, rl.Addr().String(), ol.Addr().String(), "obj.bin", 0, 50000); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := relay.FetchVia(nil, rl.Addr().String(), ol.Addr().String(), "missing.bin", 0, 10); err == nil {
		t.Fatal("fetch of missing object succeeded")
	}

	// The three daemons, assembled exactly as the cmd binaries do.
	daemons := map[string]*Daemon{
		"origind": {
			Prefix: "origin",
			Vars: func() any {
				return map[string]any{"bytes_served": origin.BytesServed.Load(), "conns": origin.Conns.Load()}
			},
			Prom: func(p *obs.Prom) {
				p.Counter("origin_bytes_served_total", "Content bytes written to clients.", float64(origin.BytesServed.Load()))
				p.Histogram("origin_request_latency_seconds", "Request serving times.", origin.LatencySnapshot())
			},
			Health: origin.Health,
		},
		"relayd": {
			Prefix: "relay",
			Vars: func() any {
				return map[string]any{"requests": r.Requests.Load(), "bytes_relayed": r.BytesRelayed.Load()}
			},
			Prom: func(p *obs.Prom) {
				p.Counter("relay_requests_total", "Requests handled.", float64(r.Requests.Load()))
				p.Histogram("relay_forward_latency_seconds", "Request forwarding times.", r.LatencySnapshot())
				r.Cache().Stats().WriteProm(p, "relay")
			},
			Health:  r.Health,
			SLO:     relaySLO,
			Cache:   func() any { return r.Cache().Stats() },
			Flight:  relayFlight,
			Bundles: relayBundles,
		},
		"registryd": {
			Prefix: "registry",
			Vars: func() any {
				return map[string]any{"registrations": reg.Registrations.Load(), "live_relays": len(reg.List())}
			},
			Prom: func(p *obs.Prom) {
				p.Counter("registry_registrations_total", "Accepted REGISTER commands.", float64(reg.Registrations.Load()))
				p.Gauge("registry_live_relays", "Relays currently registered and unexpired.", float64(len(reg.List())))
				p.Histogram("registry_command_latency_seconds", "Wire-command handling times.", reg.LatencySnapshot())
			},
		},
	}

	for name, d := range daemons {
		addr := serveDaemon(t, d)

		status, page := scrape(t, addr, "/metrics")
		if status != 200 {
			t.Fatalf("%s /metrics status %d", name, status)
		}
		if err := obs.LintProm(page); err != nil {
			t.Fatalf("%s /metrics lint: %v\n%s", name, err, page)
		}
		if !strings.Contains(string(page), d.Prefix+"_") {
			t.Fatalf("%s /metrics has no %s_ families:\n%s", name, d.Prefix, page)
		}
		if d.Health != nil && !strings.Contains(string(page), d.Prefix+"_path_health{") {
			t.Fatalf("%s /metrics missing path health gauges:\n%s", name, page)
		}
		if d.SLO != nil && !strings.Contains(string(page), d.Prefix+"_slo_availability_burn_fast") {
			t.Fatalf("%s /metrics missing SLO families:\n%s", name, page)
		}

		status, body := scrape(t, addr, "/debug/vars")
		var decoded map[string]any
		if status != 200 || json.Unmarshal(body, &decoded) != nil {
			t.Fatalf("%s /debug/vars = %d %q", name, status, body)
		}
		if status, _ := scrape(t, addr, "/healthz"); status != 200 {
			t.Fatalf("%s /healthz = %d", name, status)
		}

		if d.Health != nil {
			status, body := scrape(t, addr, "/debug/paths")
			var snap obs.HealthSnapshot
			if status != 200 || json.Unmarshal(body, &snap) != nil {
				t.Fatalf("%s /debug/paths = %d %q", name, status, body)
			}
			if len(snap.Paths) == 0 {
				t.Fatalf("%s /debug/paths empty after live traffic", name)
			}
		}
		if d.SLO != nil {
			status, body := scrape(t, addr, "/debug/slo")
			var snap obs.SLOSnapshot
			if status != 200 || json.Unmarshal(body, &snap) != nil {
				t.Fatalf("%s /debug/slo = %d %q", name, status, body)
			}
			if snap.Total == 0 {
				t.Fatalf("%s /debug/slo saw no requests", name)
			}
		}
		// /debug/stack is unconditional on every daemon: a plain-text
		// goroutine dump that works with -pprof off.
		status, stack := scrape(t, addr, "/debug/stack")
		if status != 200 || !strings.Contains(string(stack), "goroutine") {
			t.Fatalf("%s /debug/stack = %d %.80q", name, status, stack)
		}

		if d.Flight != nil {
			status, body := scrape(t, addr, "/debug/requests")
			var page struct {
				Seen   uint64         `json:"seen"`
				Events []flight.Event `json:"events"`
			}
			if status != 200 || json.Unmarshal(body, &page) != nil {
				t.Fatalf("%s /debug/requests = %d %q", name, status, body)
			}
			if len(page.Events) == 0 {
				t.Fatalf("%s /debug/requests empty after live traffic", name)
			}
			// The ?class= filter must narrow the page to matching events.
			status, body = scrape(t, addr, "/debug/requests?class=status")
			if status != 200 || json.Unmarshal(body, &page) != nil {
				t.Fatalf("%s /debug/requests?class= = %d %q", name, status, body)
			}
			for _, ev := range page.Events {
				if ev.Class != "status" {
					t.Fatalf("%s filtered page leaked class %q", name, ev.Class)
				}
			}
			status, body = scrape(t, addr, "/debug/active")
			var active []flight.ActiveTransfer
			if status != 200 || json.Unmarshal(body, &active) != nil {
				t.Fatalf("%s /debug/active = %d %q", name, status, body)
			}
		}
		if d.Bundles != nil {
			status, body := scrape(t, addr, "/debug/bundle")
			var listing struct {
				Stats   flight.EngineStats  `json:"stats"`
				Bundles []flight.BundleInfo `json:"bundles"`
			}
			if status != 200 || json.Unmarshal(body, &listing) != nil {
				t.Fatalf("%s /debug/bundle = %d %q", name, status, body)
			}
			if status, _ := scrape(t, addr, "/debug/bundle?name=nope"); status != 404 {
				t.Fatalf("%s /debug/bundle?name=nope = %d, want 404", name, status)
			}
		}

		if d.Cache != nil {
			status, body := scrape(t, addr, "/debug/cache")
			var snap objcache.Stats
			if status != 200 || json.Unmarshal(body, &snap) != nil {
				t.Fatalf("%s /debug/cache = %d %q", name, status, body)
			}
			if snap.Fills == 0 || snap.Hits == 0 || snap.BytesCached == 0 {
				t.Fatalf("%s /debug/cache saw no cache activity: %+v", name, snap)
			}
			if !strings.Contains(string(page), d.Prefix+"_cache_hits_total") {
				t.Fatalf("%s /metrics missing cache families:\n%s", name, page)
			}
		}
	}

	// The relay health monitor keyed its single upstream path.
	hs := r.Health.Snapshot()
	if _, ok := hs.Path(ol.Addr().String()); !ok {
		t.Fatalf("relay health has no entry for origin %s: %+v", ol.Addr(), hs.Paths)
	}
}
