// Command relayd runs an indirect-routing relay: the intermediate-node
// forwarding service that accepts absolute-form HTTP GETs, contacts the
// origin, and splices the (ranged) response back to the client.
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
// self-reported to the registry, so LISTH ranks warm relays first.
//
// With -metrics set, live counters (requests handled, bytes relayed —
// the raw material of the paper's §V utilization analysis) are served
// as JSON on /debug/vars, Prometheus text format on /metrics (including
// the forward-latency histogram and per-origin path-health gauges),
// per-path health as JSON on /debug/paths, SLO burn windows on
// /debug/slo, cache counters on /debug/cache (with -cache-bytes set),
// liveness on /healthz, and readiness on /readyz (the
// listener must be up and — when -registry is set — the registry still
// accepting heartbeats). With -trace set, the relay records
// forward/dial/ttfb/stream spans per request — continuing the client's
// x-trace — under tail-based retention (errored and slowest-decile
// traces always kept, boring ones sampled at -trace-keep within
// -trace-budget bytes) and archives the kept spans as JSONL on
// shutdown. When both -registry and -metrics are set, heartbeats carry
// the metrics address so the registry's fleet aggregator can scrape
// this relay. -pprof serves
// net/http/pprof on a separate address. Logging is structured (slog);
// see -log-format, -log-level, and -log-components.
//
// The flight recorder is on by default (-flight sets the wide-event
// ring size, 0 disables): every forward lands one canonical record at
// /debug/requests (JSONL-archivable via -flight-archive), in-flight
// forwards show at /debug/active, and SLO fast-burn crossings or
// health →down transitions snapshot a rate-limited debug bundle
// (-bundle-window) to /debug/bundle and -bundle-dir. -profile-dir
// turns on the continuous profiler: periodic CPU/heap/goroutine
// captures in a byte-bounded on-disk ring, with pprof labels on the
// forward hot path while it runs.
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
	regAddr := flag.String("registry", "", "registry address to self-register with; comma-separate peered registries to fail over (optional)")
	regTimeout := flag.Duration("registry-timeout", 5*time.Second, "per-request registry deadline")
	name := flag.String("name", "relay", "relay name used when registering")
	ttl := flag.Duration("ttl", time.Minute, "registration TTL")
	tracePath := flag.String("trace", "", "write span archive (JSONL) here on shutdown (empty = tracing off)")
	traceBudget := flag.Int("trace-budget", 1<<20, "tail-retention byte budget for kept traces")
	traceKeep := flag.Float64("trace-keep", 0.1, "probability a boring (no-error, not-slow) trace is kept")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	flightRing := flag.Int("flight", 512, "flight-recorder wide-event ring size (0 = recorder off)")
	flightArchive := flag.String("flight-archive", "", "append wide events as JSONL here (empty = no archive)")
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
	// and SLO trigger hooks can close over the engine variable; the engine
	// itself is assigned below, before the listener starts, so no traffic
	// can fire a trigger against a half-built engine.
	var engine *flight.Engine
	var rec *flight.Recorder
	var archive *os.File
	if *flightRing > 0 {
		fcfg := flight.Config{Ring: *flightRing}
		if *flightArchive != "" {
			f, err := os.Create(*flightArchive)
			if err != nil {
				logger.Error("flight archive failed", "path", *flightArchive, "err", err)
				os.Exit(1)
			}
			archive, fcfg.Archive = f, f
		}
		rec = flight.NewRecorder(fcfg)
	}
	prof, stopProf := mkProf(logger)
	defer stopProf()

	slo := obs.NewSLOTracker(obs.SLOConfig{
		OnFastBurn: func(path string, burn float64) { engine.FireBurn(path, burn) },
	})
	var spans *obs.SpanCollector
	if *tracePath != "" {
		// Error-class and slowest-decile traces always survive, boring
		// ones draw against -trace-keep, all within -trace-budget bytes.
		spans = obs.NewTailSpanCollector(obs.TailConfig{
			ByteBudget: *traceBudget,
			KeepProb:   *traceKeep,
		})
	}
	mon := obs.NewHealthMonitor(obs.HealthConfig{
		Clock: obs.WallClock(), SLO: slo,
		OnTransition: func(path string, tr obs.HealthTransition) { engine.FireHealth(path, tr) },
	})
	r := relay.New(
		relay.WithHealthMonitor(mon),
		relay.WithSpans(spans),
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
	d := &daemon.Daemon{Prefix: "relay", Prom: r.WriteProm, Health: r.Health, SLO: slo}
	if rec != nil {
		engine = flight.NewEngine(flight.TriggerConfig{
			Recorder: rec,
			Spans:    spans,
			Profiler: prof,
			Dir:      *bundleDir,
			Window:   bundleWindow.Seconds(),
			Metrics:  func() []byte { return d.MetricsPage(obs.NewProm()) },
		})
		defer engine.Close()
		logger.Info("flight recorder on", "ring", *flightRing, "archive", *flightArchive,
			"bundle_dir", *bundleDir)
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
		// Heartbeats go through a pooled client: steady state is one
		// round trip on a held-open connection, each tick re-resolving
		// through the client (transparent redial, fallback peers) so one
		// refused connection doesn't burn a tick. With peered registries
		// listed, a heartbeat landing on either converges on both.
		addrs := strings.Split(*regAddr, ",")
		rc := registry.NewClient(addrs[0],
			registry.WithTimeout(*regTimeout),
			registry.WithPooledConn(),
			registry.WithFallbackPeers(addrs[1:]...))
		defer rc.Close()
		// The heartbeat advertises the metrics address so the registry's
		// fleet aggregator knows where to scrape this relay.
		hb, err = rc.StartHeartbeatFull(ctx, *name, l.Addr().String(), *metrics, *ttl,
			aggregateHealth(r.Health, r.Cache()))
		if err != nil {
			logger.Error("registration failed", "registry", *regAddr, "err", err)
			os.Exit(1)
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
			"spans_seen":    spans.Seen(),
			"spans_dropped": spans.Dropped(),
		}
		if spans != nil {
			v["trace_tail"] = spans.TailStats()
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
				"seen":            rec.Seen(),
				"dropped":         rec.Dropped(),
				"archive_dropped": rec.ArchiveDropped(),
				"bundles":         engine.Stats(),
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
	daemon.ArchiveSpans(*tracePath, "relayd", spans, logger)
	if rec != nil {
		rec.CloseArchive()
	}
	if archive != nil {
		archive.Close()
	}
}

// aggregateHealth folds the per-origin path scores into the single
// scalar the relay self-reports to the registry: the mean score, or
// unreported before any traffic (ranking a silent relay last is the
// conservative choice). With a cache attached, warmth scales the score
// within [warmthFloor, 1]: among equally healthy relays, LISTH ranks
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
