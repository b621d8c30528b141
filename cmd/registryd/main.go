// Command registryd runs the relay registry: relays register themselves
// with TTL heartbeats (optionally carrying a self-reported health score),
// and clients discover the live relay set from it — the operational
// realization of the paper's "set of nodes available to a client". Its
// one listing command, LISTD, serves epoch-keyed deltas so steady-state
// clients re-pull only what changed instead of the full table, and a
// first pull ("LISTD 0 k") returns the set ranked healthiest-first, so
// clients can probe only the healthiest K (the paper's knee is ~10 of
// 35).
//
// Usage:
//
//	registryd -listen 127.0.0.1:8070 -metrics 127.0.0.1:9070
//
// The table stripes across -shards lock partitions, so heartbeat storms
// from very large relay fleets don't serialize on one mutex. Each
// registryd is complete on its own and talks to no other: to survive a
// registryd loss, run two and name both everywhere — relays heartbeat
// to every address in relayd -registry a,b, and clients fail over
// through fetch -registry a,b.
//
// With -metrics set, live counters (registrations, LISTD queries,
// epoch, live and down relay counts) are served as JSON on
// /debug/vars, shard occupancy on /debug/registry,
// Prometheus text format on /metrics (including the command-latency
// histogram), liveness on /healthz, and readiness on /readyz (the
// listener must be up). A relay whose heartbeat carries a metrics
// address is listed with it by LISTD, which is how fetch -fleet and
// fetch -bundle find each relay's own debug pages. /debug/stack serves
// a plain-text goroutine dump even with -pprof off. -pprof serves
// net/http/pprof on a separate address. Logging is structured (slog);
// see -log-format and -log-level.
package main

import (
	"context"
	"flag"
	"net"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/registry"
)

func main() {
	listen := flag.String("listen", "127.0.0.1:8070", "listen address")
	metrics := flag.String("metrics", "", "metrics endpoint address (empty = off)")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats log interval (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	shards := flag.Int("shards", registry.DefaultShards, "table lock partitions")
	timeout := flag.Duration("timeout", registry.DefaultTimeout, "per-command connection deadline")
	mkLog := daemon.LogFlags()
	flag.Parse()
	logger := mkLog("registryd")

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	s := registry.Server{NumShards: *shards, Timeout: *timeout}
	l, err := net.Listen("tcp", *listen)
	if err != nil {
		logger.Error("listen failed", "addr", *listen, "err", err)
		os.Exit(1)
	}
	ready := daemon.ServeListener(l, s.Serve, logger)
	logger.Info("listening", "addr", l.Addr().String(), "shards", *shards)

	d := &daemon.Daemon{
		Prefix: "registry",
		Vars: func() any {
			st := s.Stats()
			return map[string]any{
				"registrations": s.Registrations.Load(),
				"delta_lists":   s.DeltaLists.Load(),
				"full_deltas":   s.FullDeltas.Load(),
				"downs":         s.Downs.Load(),
				"live_relays":   st.Live,
				"down_relays":   st.Down,
				"epoch":         st.Epoch,
			}
		},
		Registry: func() any { return map[string]any{"table": s.Stats()} },
		Prom:     s.WriteProm,
		Ready:    ready,
	}
	d.ServeMetrics(ctx, *metrics, logger)
	daemon.ServePprof(ctx, *pprofAddr, logger)

	// The stats logger stops with the signal context (ranging over the
	// ticker would leak the goroutine past shutdown).
	if *statsEvery > 0 {
		ticker := time.NewTicker(*statsEvery)
		go func() {
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					logger.Info("stats", "live_relays", s.Stats().Live,
						"registrations", s.Registrations.Load(),
						"epoch", s.Epoch())
				case <-ctx.Done():
					return
				}
			}
		}()
	}

	<-ctx.Done()
	logger.Info("shutting down", "registrations", s.Registrations.Load(), "epoch", s.Epoch())
	l.Close()
}
