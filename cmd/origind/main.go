// Command origind runs an origin server that serves synthetic objects
// with HTTP range support — the stand-in for the paper's destination web
// servers (eBay, Google, Microsoft, Yahoo).
//
// Usage:
//
//	origind -listen 127.0.0.1:8080 -object large.bin=4000000 -object small.bin=200000
//
// Each accepted connection's send buffer is fixed at 256 KiB (the kernel
// reports it doubled), which caps one connection at about 512 KiB per
// round trip: 20-40 Mb/s on a 100 ms path.
//
// With -metrics set, live counters (bytes served, connections handled)
// are served as JSON on /debug/vars, Prometheus text format on /metrics
// (including the request-latency histogram and per-object serving-health
// gauges), per-object health as JSON on /debug/paths, liveness on
// /healthz, and readiness on /readyz (the listener must be up). With
// -trace set, the origin records a serve span per request — continuing
// whatever trace the client or relay stamped in the x-trace header — in a
// store of the last 512 requests (errored and slowest-decile traces are
// overwritten last) and archives them as JSONL on shutdown, ready for
// stitching with the other processes' archives. -pprof serves
// net/http/pprof on a separate address. Logging is structured (slog);
// see -log-format and -log-level.
//
// The flight-recorder pieces that apply to an origin are wired too:
// /debug/stack always serves a plain-text goroutine dump, -profile-dir
// runs the continuous profiler (periodic CPU/heap/goroutine captures in
// a byte-bounded on-disk ring, -profile-every / -profile-max-bytes),
// and an object whose serving health transitions to down fires a
// rate-limited debug bundle (goroutine dump, freshest profiles, the
// /metrics page) to /debug/bundle and -bundle-dir. Origins forward no
// transfers, so bundles here carry no wide events — those live on the
// relay and in the client; the -trace store is read only by the archive.
package main

import (
	"context"
	"flag"
	"net"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/relay"
)

type objectList []string

func (o *objectList) String() string     { return strings.Join(*o, ",") }
func (o *objectList) Set(v string) error { *o = append(*o, v); return nil }

func main() {
	var objects objectList
	listen := flag.String("listen", "127.0.0.1:8080", "listen address")
	metrics := flag.String("metrics", "", "metrics endpoint address (empty = off)")
	tracePath := flag.String("trace", "", "write span archive (JSONL) here on shutdown (empty = tracing off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	bundleDir := flag.String("bundle-dir", "", "persist anomaly debug bundles here (empty = in-memory only)")
	bundleWindow := flag.Duration("bundle-window", time.Minute, "per-path rate limit between debug bundles")
	flag.Var(&objects, "object", "object spec name=size (repeatable)")
	mkProf := daemon.ProfilerFlags()
	mkLog := daemon.LogFlags()
	flag.Parse()
	logger := mkLog("origind")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	prof, stopProf := mkProf(logger)
	defer stopProf()

	var rec *flight.Recorder
	if *tracePath != "" {
		rec = flight.NewRecorder(0, true)
	}
	// An object's serving health going down fires a debug bundle; the
	// engine is assigned before the listener starts, so the nil-safe
	// closure can never race a live transition.
	var engine *flight.Engine
	origin := relay.NewOriginServer(
		relay.WithHealthMonitor(obs.NewHealthMonitor(obs.HealthConfig{
			Clock:        obs.WallClock(),
			OnTransition: func(path string, tr obs.HealthTransition) { engine.FireHealth(path, tr) },
		})),
		relay.WithFlight(rec),
	)
	if len(objects) == 0 {
		objects = objectList{"large.bin=4000000"}
	}
	for _, spec := range objects {
		name, sizeStr, ok := strings.Cut(spec, "=")
		if !ok {
			logger.Error("bad -object spec (want name=size)", "spec", spec)
			os.Exit(2)
		}
		size, err := strconv.ParseInt(sizeStr, 10, 64)
		if err != nil || size < 0 {
			logger.Error("bad size in -object spec", "spec", spec)
			os.Exit(2)
		}
		origin.Put(name, size)
		logger.Info("serving object", "name", name, "bytes", size)
	}

	// The metrics half of the introspection surface exists before the
	// engine does: a debug bundle snapshots the page /metrics serves.
	d := &daemon.Daemon{Prefix: "origin", Prom: origin.WriteProm, Health: origin.Health}
	engine = flight.NewEngine(flight.TriggerConfig{
		Profiler: prof,
		Dir:      *bundleDir,
		Window:   bundleWindow.Seconds(),
		Metrics:  func() []byte { return d.MetricsPage(obs.NewProm()) },
	})
	defer engine.Close()

	l, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "err", err)
		os.Exit(1)
	}
	ready := daemon.ServeListener(l, origin.Serve, logger)
	logger.Info("listening", "addr", l.Addr().String())

	d.Vars = func() any {
		return map[string]any{
			"bytes_served": origin.BytesServed.Load(),
			"conns":        origin.Conns.Load(),
			"bundles":      engine.Stats(),
			"profiler": map[string]any{
				"cycles": prof.Cycles(), "failures": prof.Failures(), "disk_bytes": prof.DiskBytes(),
			},
		}
	}
	d.Bundles, d.Ready = engine, ready
	d.ServeMetrics(ctx, *metrics, logger)
	daemon.ServePprof(ctx, *pprofAddr, logger)

	<-ctx.Done()
	logger.Info("shutting down", "bytes_served", origin.BytesServed.Load())
	l.Close()
	// Requests still streaming record their serve span when they finish;
	// a second interrupt ends the wait the default way.
	stop()
	origin.WaitIdle()
	daemon.ArchiveSpans(*tracePath, "origind", rec, logger)
}
