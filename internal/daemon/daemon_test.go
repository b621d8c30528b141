package daemon

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"os"
	"regexp"
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

// surfaces is one loopback origin, relay and registry with every
// optional subsystem the binaries can turn on — tracing (into the flight
// store on both), cache, flight recorder, bundle engine — and the
// three Daemons over them, each taking its families from the same
// WriteProm method its cmd binary does.
type surfaces struct {
	origin                *relay.Origin
	relay                 *relay.Relay
	originAddr, relayAddr string
	daemons               map[string]*Daemon
}

// startSurfaces brings the three servers up, registers the relay, and
// pushes three direct and three relayed fetches of obj.bin through.
func startSurfaces(t *testing.T) *surfaces {
	t.Helper()
	origin := relay.NewOriginServer()
	origin.Health = obs.NewHealthMonitor(obs.HealthConfig{Window: 10, Buckets: 10, Clock: obs.WallClock()})
	origin.Flight = flight.NewRecorder(0, true)
	origin.Put("obj.bin", 1<<20)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ol.Close() })

	relayFlight := flight.NewRecorder(64, true)
	relayHealth := obs.NewHealthMonitor(obs.HealthConfig{Window: 10, Buckets: 10, Clock: obs.WallClock()})
	r := relay.New(
		relay.WithHealthMonitor(relayHealth),
		relay.WithCache(16<<20),
		relay.WithVerifier(relay.VerifyRange),
		relay.WithFlight(relayFlight),
	)
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rl.Close() })

	reg := &registry.Server{}
	gl, err := reg.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { gl.Close() })
	if err := registry.NewClient(gl.Addr().String()).RegisterHealth(context.Background(), "r1", rl.Addr().String(), time.Minute, 0.9); err != nil {
		t.Fatal(err)
	}

	relayd := &Daemon{
		Prefix: "relay",
		Vars: func() any {
			return map[string]any{"requests": r.Requests.Load(), "bytes_relayed": r.BytesRelayed.Load()}
		},
		Prom:   r.WriteProm,
		Health: relayHealth,
		Cache:  func() any { return r.Cache().Stats() },
		Flight: relayFlight,
	}
	// As in relayd: the bundle engine snapshots the daemon's own page.
	relayd.Bundles = flight.NewEngine(flight.TriggerConfig{
		Recorder: relayFlight,
		Metrics:  func() []byte { return relayd.MetricsPage(obs.NewProm()) },
	})
	t.Cleanup(relayd.Bundles.Close)
	s := &surfaces{origin: origin, relay: r, originAddr: ol.Addr().String(), relayAddr: rl.Addr().String()}
	for i := 0; i < 3; i++ {
		if _, err := relay.Fetch(nil, s.originAddr, "obj.bin", 0, 50000); err != nil {
			t.Fatal(err)
		}
		if _, err := relay.FetchVia(nil, s.relayAddr, s.originAddr, "obj.bin", 0, 50000); err != nil {
			t.Fatal(err)
		}
	}
	s.daemons = map[string]*Daemon{
		"origind": {
			Prefix: "origin",
			Vars: func() any {
				return map[string]any{"bytes_served": origin.BytesServed.Load(), "conns": origin.Conns.Load()}
			},
			Prom:   origin.WriteProm,
			Health: origin.Health,
		},
		"relayd": relayd,
		"registryd": {
			Prefix: "registry",
			Vars: func() any {
				return map[string]any{"registrations": reg.Registrations.Load(), "live_relays": len(reg.List()), "epoch": reg.Stats().Epoch}
			},
			// As in registryd.
			Registry: func() any { return map[string]any{"table": reg.Stats()} },
			Prom:     reg.WriteProm,
		},
	}
	return s
}

// idle waits until what the requests so far leave behind has landed.
func (s *surfaces) idle() {
	s.relay.WaitIdle()
	s.origin.WaitIdle()
}

var loopbackPort = regexp.MustCompile(`127\.0\.0\.1:[0-9]+`)

// skeleton reduces a classic /metrics page to what a scraper's
// configuration depends on: every # HELP and # TYPE line verbatim and
// every sample's name and label set, in order, with the value dropped
// and loopback ports masked. The go_* histograms' bucket lines are left
// out: their layout is the toolchain's, not this repo's.
func skeleton(page []byte) string {
	var out strings.Builder
	for _, line := range strings.Split(strings.TrimSuffix(string(page), "\n"), "\n") {
		if strings.HasPrefix(line, "go_") && strings.Contains(line, "_bucket{") {
			continue
		}
		if !strings.HasPrefix(line, "#") {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				line = line[:i]
			}
		}
		out.WriteString(loopbackPort.ReplaceAllString(line, "127.0.0.1:PORT"))
		out.WriteByte('\n')
	}
	return out.String()
}

// TestPromOMClassicByteCompatible (the daemon half; internal/obs has
// the builder half) pins the classic /metrics of the three daemons to
// skeletons scraped from the relayd, origind and registryd binaries on
// loopback — tracing, cache and flight on, a few fetches through —
// at the commit before the family definitions moved into WriteProm
// methods. A family added, dropped, renamed, reworded, retyped or
// reordered fails here; the goldens change only on purpose.
func TestPromOMClassicByteCompatible(t *testing.T) {
	s := startSurfaces(t)
	s.idle()
	for name, d := range s.daemons {
		status, page := scrape(t, serveDaemon(t, d), "/metrics")
		if status != 200 {
			t.Fatalf("%s /metrics status %d", name, status)
		}
		want, err := os.ReadFile("testdata/metrics_" + d.Prefix + ".golden")
		if err != nil {
			t.Fatal(err)
		}
		diffSkeleton(t, name+" /metrics", page, want)
		if d.Bundles == nil {
			continue
		}
		// A debug bundle's metrics snapshot is the same page: Close
		// drains the trigger before the bundle is read.
		d.Bundles.FireHealth(s.originAddr, obs.HealthTransition{To: obs.HealthDown})
		d.Bundles.Close()
		infos := d.Bundles.Bundles()
		if len(infos) != 1 {
			t.Fatalf("%s fired %d bundles, want 1", name, len(infos))
		}
		b, _ := d.Bundles.Bundle(infos[0].Name)
		diffSkeleton(t, name+" bundle metrics", []byte(b.Metrics), want)
	}
}

// diffSkeleton reports the first line where page's skeleton leaves the
// golden one.
func diffSkeleton(t *testing.T, what string, page, golden []byte) {
	t.Helper()
	got, want := strings.Split(skeleton(page), "\n"), strings.Split(string(golden), "\n")
	for i := 0; i < len(got) || i < len(want); i++ {
		var g, w string
		if i < len(got) {
			g = got[i]
		}
		if i < len(want) {
			w = want[i]
		}
		if g != w {
			t.Errorf("%s skeleton line %d:\n got  %q\n want %q", what, i+1, g, w)
			return
		}
	}
}

// TestAllDaemonMetricsPagesLint is the e2e exposition check: one
// loopback run with a live origin, relay, and registry — assembled
// through the same Daemon structs the cmd binaries use — drives real
// transfers through the relay, then scrapes /metrics from all three
// debug servers and passes every page through LintProm. /debug/vars,
// /debug/paths, and /debug/registry must parse as JSON alongside.
func TestAllDaemonMetricsPagesLint(t *testing.T) {
	s := startSurfaces(t)
	ol := s.originAddr
	// One relayed failure (unknown object) so error counters move.
	if _, err := relay.FetchVia(nil, s.relayAddr, s.originAddr, "missing.bin", 0, 10); err == nil {
		t.Fatal("fetch of missing object succeeded")
	}
	s.idle()

	for name, d := range s.daemons {
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
		if d.Registry != nil {
			// The table's epoch is the one /debug/vars reports: both read
			// the same registry, and nothing registers in between.
			status, body := scrape(t, addr, "/debug/registry")
			var page struct {
				Table registry.Stats `json:"table"`
			}
			if status != 200 || json.Unmarshal(body, &page) != nil {
				t.Fatalf("%s /debug/registry = %d %q", name, status, body)
			}
			epoch, _ := decoded["epoch"].(float64)
			if page.Table.Epoch == 0 || float64(page.Table.Epoch) != epoch {
				t.Fatalf("%s /debug/registry table.epoch %d, /debug/vars epoch %v", name, page.Table.Epoch, decoded["epoch"])
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
	hs := s.daemons["relayd"].Health.Snapshot()
	if _, ok := hs.Path(ol); !ok {
		t.Fatalf("relay health has no entry for origin %s: %+v", ol, hs.Paths)
	}
}
