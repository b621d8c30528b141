// Command registryd runs the relay registry: relays register themselves
// with TTL heartbeats (optionally carrying a self-reported health score),
// and clients discover the live relay set from it — the operational
// realization of the paper's "set of nodes available to a client". The
// LISTH command returns the set ranked healthiest-first, so clients can
// probe only the healthiest K (the paper's knee is ~10 of 35), and LISTD
// serves epoch-keyed deltas so steady-state clients re-pull only what
// changed instead of the full table.
//
// Usage:
//
//	registryd -listen 127.0.0.1:8070 -metrics 127.0.0.1:9070 \
//	    -peer 127.0.0.1:8071 -sync-every 5s
//
// The table stripes across -shards lock partitions, so heartbeat storms
// from very large relay fleets don't serialize on one mutex. Each -peer
// (repeatable) names another registryd to anti-entropy against: this
// instance pulls SYNCD deltas from every peer each -sync-every and
// merges them last-writer-wins, so a heartbeat reaching either peer is
// visible on both within one interval and discovery survives a
// registryd loss (point clients at both via fetch -registry a,b).
//
// With -metrics set, live counters (registrations, list and delta
// queries, epoch, live and down relay counts) are served as JSON on
// /debug/vars, shard occupancy and peer sync cursors on /debug/registry,
// Prometheus text format on /metrics (including the command-latency
// histogram), liveness on /healthz, and readiness on /readyz (the
// listener must be up). With -fleet-every set, the registry doubles as
// the fleet observability plane: every relay whose heartbeat carries a
// metrics address is scraped (/metrics and /debug/paths) each interval,
// and the merged fleet snapshot — per-relay freshness, summed request
// and byte counters, merged forward-latency histogram, and the top-K
// worst paths anywhere in the fleet — is served as JSON on /debug/fleet
// and as fleet_* families on /metrics. /debug/stack serves a plain-text
// goroutine dump even with -pprof off. -pprof serves net/http/pprof on
// a separate address. Logging is structured (slog); see -log-format,
// -log-level, and -log-components.
package main

import (
	"context"
	"flag"
	"net"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/obs/fleet"
	"repro/internal/registry"
)

// peerList collects repeatable -peer flags (comma-separated values also
// accepted).
type peerList []string

func (p *peerList) String() string { return strings.Join(*p, ",") }

func (p *peerList) Set(v string) error {
	for _, a := range strings.Split(v, ",") {
		if a = strings.TrimSpace(a); a != "" {
			*p = append(*p, a)
		}
	}
	return nil
}

func main() {
	listen := flag.String("listen", "127.0.0.1:8070", "listen address")
	metrics := flag.String("metrics", "", "metrics endpoint address (empty = off)")
	statsEvery := flag.Duration("stats", 30*time.Second, "stats log interval (0 = off)")
	pprofAddr := flag.String("pprof", "", "serve net/http/pprof on this address (empty = off)")
	shards := flag.Int("shards", registry.DefaultShards, "table lock partitions")
	timeout := flag.Duration("timeout", registry.DefaultTimeout, "per-command connection deadline")
	syncEvery := flag.Duration("sync-every", 5*time.Second, "peer anti-entropy interval")
	fleetEvery := flag.Duration("fleet-every", 0, "fleet aggregator scrape interval (0 = off)")
	fleetTopK := flag.Int("fleet-topk", 10, "worst paths kept in the fleet snapshot")
	var peers peerList
	flag.Var(&peers, "peer", "peer registryd address to sync against (repeatable, or comma-separated)")
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
	logger.Info("listening", "addr", l.Addr().String(), "shards", *shards, "peers", peers.String())

	var ps *registry.PeerSync
	if len(peers) > 0 {
		ps = registry.NewPeerSync(&s, peers, *syncEvery, *timeout, logger)
		go ps.Run(ctx)
	}

	// The fleet aggregator turns the registry's vantage into a fleet-wide
	// observability plane: every relay that heartbeats with a metrics
	// address gets its /metrics and /debug/paths scraped each interval,
	// and the merged snapshot is served on /debug/fleet and as fleet_*
	// Prometheus families.
	var agg *fleet.Aggregator
	if *fleetEvery > 0 {
		agg = fleet.New(fleet.Config{
			Source: fleet.ServerSource(&s),
			Every:  *fleetEvery,
			TopK:   *fleetTopK,
		})
		go agg.Run(ctx)
		logger.Info("fleet aggregator running", "every", *fleetEvery)
	}

	d := &daemon.Daemon{
		Prefix: "registry",
		Vars: func() any {
			st := s.Stats()
			return map[string]any{
				"registrations": s.Registrations.Load(),
				"lists":         s.Lists.Load(),
				"delta_lists":   s.DeltaLists.Load(),
				"full_deltas":   s.FullDeltas.Load(),
				"syncs":         s.Syncs.Load(),
				"downs":         s.Downs.Load(),
				"live_relays":   st.Live,
				"down_relays":   st.Down,
				"epoch":         st.Epoch,
			}
		},
		Registry: func() any {
			out := map[string]any{"table": s.Stats()}
			if ps != nil {
				out["peers"] = ps.Stats()
			}
			return out
		},
		Prom: func(p *obs.Prom) {
			s.WriteProm(p)
			if ps != nil {
				pulls := map[string]float64{}
				applied := map[string]float64{}
				errs := map[string]float64{}
				for _, pst := range ps.Stats() {
					pulls[pst.Addr] = float64(pst.Pulls)
					applied[pst.Addr] = float64(pst.Applied)
					errs[pst.Addr] = float64(pst.Errors)
				}
				p.LabeledCounter("registry_peer_pulls_total", "Peer sync pulls completed.", "peer", pulls)
				p.LabeledCounter("registry_peer_applied_total", "Peer sync records applied.", "peer", applied)
				p.LabeledCounter("registry_peer_errors_total", "Peer sync failures.", "peer", errs)
			}
			if agg != nil {
				agg.Snapshot().WriteProm(p)
			}
		},
		Ready: ready,
	}
	if agg != nil {
		d.Fleet = func() any { return agg.Snapshot() }
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
					logger.Info("stats", "live_relays", len(s.List()),
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
