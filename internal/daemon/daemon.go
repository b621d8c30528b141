// Package daemon is the shared introspection scaffolding for origind,
// relayd, and registryd: one place that assembles the debug mux
// (/healthz, /readyz, /debug/vars, /metrics, /debug/stack, and — when
// the subsystems are wired — /debug/paths, /debug/cache,
// /debug/registry, /debug/requests, /debug/active, /debug/bundle), the
// common logging flag plumbing around internal/obs/slogx, and the start-up
// and shutdown steps the three mains share (listener liveness, -pprof,
// the continuous profiler's flags, the span archive). The daemons
// declaring their endpoints through this package means the e2e metrics
// test exercises exactly the pages the binaries serve, not a parallel
// reimplementation.
package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"log/slog"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/obs/slogx"
	"repro/internal/traceio"
)

// Daemon describes one process's introspection surface.
type Daemon struct {
	// Prefix namespaces the Prometheus families ("origin", "relay",
	// "registry").
	Prefix string
	// Vars builds the /debug/vars payload; nil serves an empty object.
	Vars func() any
	// Prom appends the daemon's own metric families to a scrape; the
	// health families are appended automatically when Health is set.
	Prom func(p *obs.Prom)
	// Health, when set, adds /debug/paths and the per-path health
	// gauges to /metrics.
	Health *obs.HealthMonitor
	// Cache, when set, builds the /debug/cache payload (an
	// objcache.Stats snapshot); the cache's Prometheus families are the
	// daemon's to append via Prom.
	Cache func() any
	// Registry, when set, builds the /debug/registry payload (a
	// registry.Stats snapshot — shard occupancy, epoch, delta floor,
	// digest — plus peer sync cursors on a peered registryd).
	Registry func() any
	// Flight, when set, adds the flight-recorder pages: /debug/requests
	// (recent wide events, filterable by ?path=&class=&object=&trace=&n=)
	// and /debug/active (in-flight transfers).
	Flight *flight.Recorder
	// Bundles, when set, adds /debug/bundle: the trigger engine's
	// retained debug bundles (listing, or one bundle via ?name=).
	Bundles *flight.Engine
	// Ready backs /healthz and /readyz; nil means unconditionally
	// healthy (a daemon with no checks yet).
	Ready *httpx.Ready
}

// MetricsPage fills p with every family /metrics serves — the daemon's
// own, then health and the Go runtime — and returns the rendered
// page. The /metrics handler and a debug bundle's metrics snapshot both
// come from here, so the two cannot drift.
func (d *Daemon) MetricsPage(p *obs.Prom) []byte {
	if d.Prom != nil {
		d.Prom(p)
	}
	if d.Health != nil {
		d.Health.Snapshot().WriteProm(p, d.Prefix)
	}
	obs.WriteRuntimeProm(p)
	return p.Bytes()
}

// Mux assembles the debug mux.
func (d *Daemon) Mux() *httpx.Mux {
	vars := d.Vars
	if vars == nil {
		vars = func() any { return map[string]any{} }
	}
	mux := httpx.NewReadyMux(vars, d.Ready)
	// /metrics content-negotiates: scrapers asking for OpenMetrics get
	// the same families plus histogram exemplars and the # EOF marker;
	// everyone else gets the classic text format, byte-for-byte what it
	// always was.
	mux.Handle("/metrics", func(req *httpx.Request) (int, map[string]string, []byte) {
		p := obs.NewProm()
		if req != nil && obs.AcceptsOpenMetrics(req.Header["accept"]) {
			p = obs.NewOpenMetricsProm()
		}
		return 200, map[string]string{"content-type": p.ContentType()}, d.MetricsPage(p)
	})
	if d.Health != nil {
		mux.Handle("/debug/paths", httpx.JSONHandler(func() any {
			return d.Health.Snapshot()
		}))
	}
	if d.Cache != nil {
		mux.Handle("/debug/cache", httpx.JSONHandler(d.Cache))
	}
	if d.Registry != nil {
		mux.Handle("/debug/registry", httpx.JSONHandler(d.Registry))
	}
	// /debug/stack is unconditional: a wedged daemon must be inspectable
	// even when it was started without -pprof (and without a flight
	// recorder). Plain text, the classic debug=2 goroutine dump.
	mux.Handle("/debug/stack", func(*httpx.Request) (int, map[string]string, []byte) {
		return 200, map[string]string{"content-type": "text/plain; charset=utf-8"}, flight.GoroutineDump()
	})
	if d.Flight != nil {
		mux.Handle("/debug/requests", func(req *httpx.Request) (int, map[string]string, []byte) {
			var f flight.Filter
			if req != nil {
				f = flight.ParseQuery(req.Target)
			}
			return jsonPage(struct {
				Seen    uint64         `json:"seen"`
				Dropped uint64         `json:"dropped"`
				Events  []flight.Event `json:"events"`
			}{d.Flight.Seen(), d.Flight.Dropped(), d.Flight.Events(f)})
		})
		mux.Handle("/debug/active", httpx.JSONHandler(func() any {
			return d.Flight.Active()
		}))
	}
	if d.Bundles != nil {
		mux.Handle("/debug/bundle", func(req *httpx.Request) (int, map[string]string, []byte) {
			if name := queryValue(req, "name"); name != "" {
				b, found := d.Bundles.Bundle(name)
				if !found {
					return 404, map[string]string{"content-type": "text/plain; charset=utf-8"},
						[]byte("no such bundle: " + name + "\n")
				}
				return jsonPage(b)
			}
			return jsonPage(struct {
				Stats   flight.EngineStats  `json:"stats"`
				Bundles []flight.BundleInfo `json:"bundles"`
			}{d.Bundles.Stats(), d.Bundles.Bundles()})
		})
	}
	return mux
}

// jsonPage renders one debug payload the way httpx.JSONHandler does.
func jsonPage(v any) (int, map[string]string, []byte) {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return 500, nil, []byte(err.Error() + "\n")
	}
	return 200, map[string]string{"content-type": "application/json"}, append(b, '\n')
}

// queryValue extracts one ?key= value from a request target.
func queryValue(req *httpx.Request, key string) string {
	if req == nil {
		return ""
	}
	_, query, ok := strings.Cut(req.Target, "?")
	if !ok {
		return ""
	}
	for _, kv := range strings.Split(query, "&") {
		if k, v, ok := strings.Cut(kv, "="); ok && k == key {
			return v
		}
	}
	return ""
}

// ServeMetrics starts the debug server on addr in the background,
// logging the terminal error (if any) through logger. No-op when addr
// is empty.
func (d *Daemon) ServeMetrics(ctx context.Context, addr string, logger *slog.Logger) {
	if addr == "" {
		return
	}
	mux := d.Mux()
	go func() {
		if err := httpx.Serve(ctx, mux, addr); err != nil {
			logger.Error("metrics server failed", "addr", addr, "err", err)
		}
	}()
	logger.Info("metrics serving", "addr", addr,
		"endpoints", "/debug/vars /metrics /healthz /readyz")
}

// LogFlags registers the shared logging flags (-log-format, -log-level,
// -log-components) on the default flag set and returns a constructor to
// call after flag.Parse: it builds the component-labeled root logger
// (writing to stderr) or exits with a usage error on a bad flag value.
func LogFlags() func(component string) *slog.Logger {
	format := flag.String("log-format", "text", "log encoding: text or json")
	level := flag.String("log-level", "info", "minimum log level: debug, info, warn, error")
	components := flag.String("log-components", "", "per-component level overrides, e.g. registry=debug,relay=warn")
	return func(component string) *slog.Logger {
		lvl, err := slogx.ParseLevel(*level)
		if err != nil {
			slog.Error(err.Error())
			os.Exit(2)
		}
		perComp, err := slogx.ParseComponentLevels(*components)
		if err != nil {
			slog.Error(err.Error())
			os.Exit(2)
		}
		return slogx.New(os.Stderr, component, slogx.Config{
			Format:          *format,
			Level:           lvl,
			ComponentLevels: perComp,
		})
	}
}

// ServeListener runs serve(l) in the background and returns a check set
// whose "listener" liveness check fails once serve has returned.
func ServeListener(l net.Listener, serve func(net.Listener) error, logger *slog.Logger) *httpx.Ready {
	var up atomic.Bool
	up.Store(true)
	go func() {
		defer up.Store(false)
		if err := serve(l); err != nil {
			logger.Error("serve failed", "err", err)
		}
	}()
	ready := httpx.NewReady()
	ready.AddLive("listener", func() error {
		if !up.Load() {
			return errors.New("listener closed")
		}
		return nil
	})
	return ready
}

// ServePprof serves net/http/pprof on addr in the background until ctx
// ends. No-op when addr is empty.
func ServePprof(ctx context.Context, addr string, logger *slog.Logger) {
	if addr == "" {
		return
	}
	go func() {
		if err := httpx.ServePprof(ctx, addr); err != nil {
			logger.Error("pprof server failed", "err", err)
		}
	}()
	logger.Info("pprof serving", "addr", addr)
}

// ProfilerFlags registers the continuous profiler's flags (-profile-dir,
// -profile-every, -profile-max-bytes) on the default flag set and returns
// a constructor to call after flag.Parse. With -profile-dir set it starts
// the profiler and returns it with the function that stops it; otherwise
// the profiler is nil and stop does nothing. It exits if the capture
// directory cannot be used.
func ProfilerFlags() func(logger *slog.Logger) (prof *flight.Profiler, stop func()) {
	dir := flag.String("profile-dir", "", "continuous-profiler capture directory (empty = profiler off)")
	every := flag.Duration("profile-every", 30*time.Second, "continuous-profiler capture cadence")
	maxBytes := flag.Int64("profile-max-bytes", 8<<20, "continuous-profiler on-disk ring budget")
	return func(logger *slog.Logger) (*flight.Profiler, func()) {
		if *dir == "" {
			return nil, func() {}
		}
		prof, err := flight.NewProfiler(flight.ProfilerConfig{Dir: *dir, Every: *every, MaxBytes: *maxBytes})
		if err != nil {
			logger.Error("profiler failed", "dir", *dir, "err", err)
			os.Exit(1)
		}
		prof.Start()
		logger.Info("profiler running", "dir", *dir, "every", *every)
		return prof, prof.Stop
	}
}

// ArchiveSpans writes the collector's spans to path as a JSONL archive
// labelled with the daemon's name, logging the result. No-op when path is
// empty (tracing off).
func ArchiveSpans(path, name string, spans *obs.SpanCollector, logger *slog.Logger) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err == nil {
		err = traceio.WriteSpans(f, name, spans.Spans())
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		logger.Error("span archive failed", "path", path, "err", err)
		return
	}
	logger.Info("spans archived", "path", path, "count", len(spans.Spans()))
}
