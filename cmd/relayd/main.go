// Command relayd runs an indirect-routing relay: the intermediate-node
// forwarding service that accepts absolute-form HTTP GETs, contacts the
// origin, and splices the (ranged) response back to the client. On
// Linux a body longer than 128 KiB that the cache does not keep moves
// socket to socket with splice(2), without a copy through the relay's
// own buffers.
//
// Usage:
//
//	relayd -listen 127.0.0.1:8081 -metrics 127.0.0.1:9081 \
//	       -cache-bytes 268435456 -cache-ttl 10m
//
// With -cache-bytes set, the relay keeps a bounded range-aware object
// cache: response ranges fill it as they stream through, repeat
// requests covered by cached spans are answered from memory (x-cache:
// hit), concurrent misses for the same range collapse into one origin
// fetch, and cached content is re-verified against the synthetic
// catalog before every serve. Cache warmth folds into the health score
// self-reported to the registry, so its ranked listing puts warm relays
// first. On Linux the cached bytes live outside the Go heap, so a relay
// with -cache-bytes N keeps about N resident plus the runtime's own.
//
// With -metrics set, live counters (requests handled, bytes relayed —
// the raw material of the paper's §V utilization analysis) are served
// as JSON on /debug/vars, Prometheus text format on /metrics (including
// the forward-latency histogram and per-origin path-health gauges),
// per-path health as JSON on /debug/paths, cache counters on
// /debug/cache (with -cache-bytes set), liveness on /healthz, and
// readiness on /readyz (the listener must be up and — when -registry is
// set — at least one registry still accepting heartbeats). With -trace
// set, the relay records forward/dial/ttfb/stream spans per request — continuing
// the client's x-trace — in the flight store's rows and archives them as
// JSONL on shutdown. When both -registry and -metrics are set,
// heartbeats carry the metrics address, so fetch -fleet and fetch
// -bundle can find this relay's debug pages through the registry.
// -pprof serves net/http/pprof on a separate address. Logging is
// structured (slog); see -log-format and -log-level.
//
// The flight store is on by default (-flight rows, errored and
// slowest-decile traces overwritten last; 0 turns it off unless -trace
// needs it): every forward lands one row at /debug/requests, in-flight
// forwards show at /debug/active, and a path's health →down transition
// snapshots a rate-limited debug bundle (-bundle-window) to /debug/bundle
// and -bundle-dir. The on-disk record is the -trace span archive.
// -profile-dir turns on the continuous profiler: periodic
// CPU/heap/goroutine captures in a byte-bounded on-disk ring, with pprof
// labels on the forward hot path while it runs.
package main

import (
	"context"
	"flag"
	"fmt"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/objcache"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/registry"
	"repro/internal/relay"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8081", "listen address")
	metrics := flag.String("metrics", "", "metrics endpoint address (empty = off)")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats log interval (0 = off)")
	regAddr := flag.String("registry", "", "registry address to self-register with; comma-separate several to heartbeat every one (optional)")
	regTimeout := flag.Duration("registry-timeout", 5*time.Second, "per-request registry deadline")
	name := flag.String("name", "relay", "relay name used when registering")
	ttl := flag.Duration("ttl", time.Minute, "registration TTL")
	tracePath := flag.String("trace", "", "write span archive (JSONL) here on shutdown (empty = tracing off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	flightRing := flag.Int("flight", 512, "flight-store ring size (0 = recorder off, unless -trace needs it)")
	bundleDir := flag.String("bundle-dir", "", "persist anomaly debug bundles here (empty = in-memory only)")
	bundleWindow := flag.Duration("bundle-window", time.Minute, "per-path rate limit between debug bundles")
	cacheBytes := flag.Int64("cache-bytes", 0, "object cache capacity in bytes (0 = caching off)")
	cacheTTL := flag.Duration("cache-ttl", 0, "expire cached spans this long after fill (0 = keep until evicted)")
	upstreamStall := flag.Duration("upstream-stall", 30*time.Second, "fail a forward whose origin goes silent this long mid-response (0 = no guard)")
	mkProf := daemon.ProfilerFlags()
	mkLog := daemon.LogFlags()
	flag.Parse()
	logger := mkLog("relayd")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	// The flight-recorder pieces are built before the relay so the health
	// trigger hook can close over the engine variable; the engine itself
	// is assigned below, before the listener starts, so no traffic can
	// fire a trigger against a half-built engine.
	var engine *flight.Engine
	var rec *flight.Recorder
	if *flightRing > 0 || *tracePath != "" {
		rec = flight.NewRecorder(*flightRing, *tracePath != "")
	}
	prof, stopProf := mkProf(logger)
	defer stopProf()

	mon := obs.NewHealthMonitor(obs.HealthConfig{
		Clock:        obs.WallClock(),
		OnTransition: func(path string, tr obs.HealthTransition) { engine.FireHealth(path, tr) },
	})
	r := relay.New(
		relay.WithHealthMonitor(mon),
		relay.WithCache(*cacheBytes),
		relay.WithCacheTTL(*cacheTTL),
		relay.WithVerifier(relay.VerifyRange),
		relay.WithUpstreamStall(*upstreamStall),
		relay.WithFlight(rec),
	)
	if *cacheBytes > 0 {
		logger.Info("cache enabled", "capacity_bytes", *cacheBytes, "ttl", *cacheTTL)
	}
	// The metrics half of the introspection surface exists before the
	// engine does: a debug bundle snapshots the page /metrics serves.
	d := &daemon.Daemon{Prefix: "relay", Prom: r.WriteProm, Health: r.Health}
	if rec != nil {
		engine = flight.NewEngine(flight.TriggerConfig{
			Recorder: rec,
			Profiler: prof,
			Dir:      *bundleDir,
			Window:   bundleWindow.Seconds(),
			Metrics:  func() []byte { return d.MetricsPage(obs.NewProm()) },
		})
		defer engine.Close()
		logger.Info("flight recorder on", "ring", *flightRing, "bundle_dir", *bundleDir)
	}

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "err", err)
		os.Exit(1)
	}
	ready := daemon.ServeListener(l, r.Serve, logger)
	logger.Info("listening", "addr", l.Addr().String())

	var hb *registry.HeartbeatState
	if *regAddr != "" {
		// Heartbeats go to every listed registry, each through its own
		// pooled client: steady state is one round trip per registry on a
		// held-open connection, and a registry that is down is retried
		// every tick. Each registry then holds the relay on its own, and
		// losing one leaves the relay discoverable through the others.
		addrs := strings.Split(*regAddr, ",")
		rc := registry.NewClient(addrs[0],
			registry.WithTimeout(*regTimeout),
			registry.WithPooledConn(),
			registry.WithFallbackPeers(addrs[1:]...))
		defer rc.Close()
		// The heartbeat advertises the metrics address so clients that
		// list the registry (fetch -fleet, -bundle) can reach this
		// relay's debug pages.
		hb, err = rc.StartHeartbeat(ctx, *name, l.Addr().String(), *metrics, *ttl,
			aggregateHealth(r.Health, r.Cache()))
		if err != nil {
			logger.Error("registration failed", "registry", *regAddr, "err", err)
			os.Exit(1)
		}
		if err := hb.Err(); err != nil {
			logger.Warn("registry unreachable; retrying every heartbeat", "err", err)
		}
		ready.AddReady("registry", func() error {
			if hb.OK() {
				return nil
			}
			return fmt.Errorf("heartbeat failing: %v (last ok %s)", hb.Err(),
				hb.LastOK().Format(time.RFC3339))
		})
		logger.Info("registered", "name", *name, "registry", *regAddr, "ttl", *ttl)
	}

	d.Vars = func() any {
		v := map[string]any{
			"requests":      r.Requests.Load(),
			"bytes_relayed": r.BytesRelayed.Load(),
		}
		if hb != nil {
			v["registry_ok"] = hb.OK()
			v["registry_last_ok"] = hb.LastOK().Format(time.RFC3339)
		}
		if c := r.Cache(); c != nil {
			v["cache"] = c.Stats()
		}
		if rec != nil {
			v["flight"] = map[string]any{
				"seen":    rec.Seen(),
				"dropped": rec.Dropped(),
				"bundles": engine.Stats(),
			}
		}
		if prof != nil {
			v["profiler"] = map[string]any{
				"cycles": prof.Cycles(), "failures": prof.Failures(),
				"disk_bytes": prof.DiskBytes(),
			}
		}
		return v
	}
	d.Flight, d.Bundles, d.Ready = rec, engine, ready
	if c := r.Cache(); c != nil {
		d.Cache = func() any { return c.Stats() }
	}
	d.ServeMetrics(ctx, *metrics, logger)
	daemon.ServePprof(ctx, *pprofAddr, logger)

	// The stats logger stops with the signal context rather than ranging
	// over the ticker forever, so it can't interleave a periodic line with
	// (or outlive) the shutdown summary below.
	var statsDone chan struct{}
	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		statsDone = make(chan struct{})
		go func() {
			defer close(statsDone)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					logger.Info("stats", "requests", r.Requests.Load(),
						"bytes_relayed", r.BytesRelayed.Load())
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	<-ctx.Done()
	if statsDone != nil {
		<-statsDone
	}
	logger.Info("shutting down", "requests", r.Requests.Load(),
		"bytes_relayed", r.BytesRelayed.Load())
	l.Close()
	// Forwards still streaming finish their records — spans, wide events —
	// before those are archived. The signal handler is released first, so
	// a second interrupt ends a wait on a wedged transfer the default way.
	stop()
	r.WaitIdle()
	daemon.ArchiveSpans(*tracePath, "relayd", rec, logger)
}

// aggregateHealth folds the per-origin path scores into the single
// scalar the relay self-reports to the registry: the mean score, or
// unreported before any traffic (ranking a silent relay last is the
// conservative choice). With a cache attached, warmth scales the score
// within [warmthFloor, 1]: among equally healthy relays, the registry ranks
// the ones that can serve from memory first, while even a stone-cold
// cache only discounts a healthy path by 1-warmthFloor.
func aggregateHealth(m *obs.HealthMonitor, c *objcache.Cache) func() float64 {
	return func() float64 {
		snap := m.Snapshot()
		if len(snap.Paths) == 0 {
			return registry.HealthUnreported
		}
		sum := 0.0
		for _, p := range snap.Paths {
			sum += p.Score
		}
		score := sum / float64(len(snap.Paths))
		if c != nil {
			score *= warmthFloor + (1-warmthFloor)*c.Stats().Warmth()
		}
		return score
	}
}

// warmthFloor bounds how much a cold cache can discount a relay's
// self-reported health: path quality stays the dominant term.
const warmthFloor = 0.85
