// Command realbench runs a miniature measurement study over real TCP on
// loopback: it spins up an origin and several relays in-process, emulates
// heterogeneous, per-round-varying path bandwidths with the token-bucket
// shaper, and runs the paper's two-process methodology (a control client
// on the direct path beside a probing, selecting client) for a number of
// rounds, printing the same improvement statistics as the simulator
// experiments — a wall-clock cross-check of the whole stack.
//
// A metrics collector observes every round (engine and transport both
// feed it), so the closing report includes the paper's §V per-path
// utilization straight from the event stream; -metrics additionally
// serves the live snapshot on /debug/vars while the study runs.
//
// Usage:
//
//	realbench -rounds 20 -size 500000 [-metrics 127.0.0.1:9090]
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"sort"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/realnet"
	"repro/internal/relay"
	"repro/internal/shaper"
	"repro/internal/stats"
)

func main() {
	rounds := flag.Int("rounds", 20, "measurement rounds")
	size := flag.Int64("size", 500_000, "object size in bytes")
	probe := flag.Int64("probe", 100_000, "probe size x in bytes")
	seed := flag.Uint64("seed", 1, "rng seed for per-round path rates")
	metricsAddr := flag.String("metrics", "", "serve live metrics on this address (empty = off)")
	phases := flag.Bool("phases", false, "record tracing spans and print a per-phase latency breakdown")
	mkLog := daemon.LogFlags()
	flag.Parse()
	logger := mkLog("realbench")

	// With -phases, one collector receives spans from all three roles
	// (client, relay, origin run in-process here); Span.Service keeps
	// them apart in the breakdown.
	var spans *obs.SpanCollector
	if *phases {
		spans = obs.NewSpanCollector(0)
	}

	origin := relay.NewOriginServer()
	origin.Spans = spans
	origin.Put("large.bin", *size)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		logger.Error("origin listen failed", "err", err)
		os.Exit(1)
	}
	defer ol.Close()

	relays := map[string]string{}
	for _, name := range []string{"r1", "r2", "r3"} {
		r := &relay.Relay{Spans: spans}
		l, err := r.ServeAddr("127.0.0.1:0")
		if err != nil {
			logger.Error("relay listen failed", "err", err)
			os.Exit(1)
		}
		defer l.Close()
		relays[name] = l.Addr().String()
	}

	m := obs.NewMetrics()
	// A health monitor rides the same event stream as the metrics
	// collector (event-time clock: transport timestamps), so the closing
	// report can show each path's damped state next to its utilization.
	health := obs.NewHealthMonitor(obs.HealthConfig{})
	observer := obs.Multi(m, health)
	d := shaper.NewDialer()
	tr := &realnet.Transport{
		Servers:  map[string]string{"origin": ol.Addr().String()},
		Relays:   relays,
		Dial:     d.Dial,
		Verify:   true,
		Observer: observer,
		Spans:    spans,
	}
	defer tr.Close()

	ctx, stopMetrics := context.WithCancel(context.Background())
	defer stopMetrics()
	dm := &daemon.Daemon{
		Prefix: "realbench",
		Vars:   func() any { return m.Snapshot() },
		Health: health,
	}
	dm.ServeMetrics(ctx, *metricsAddr, logger)

	// Per-round path rates: direct wanders log-normally around 6 Mb/s;
	// each relay has its own stable level.
	rng := randx.New(*seed)
	directDist := randx.LogNormalFromMean(6e6, 0.5)
	relayRate := map[string]float64{"r1": 10e6, "r2": 4e6, "r3": 7e6}

	obj := core.Object{Server: "origin", Name: "large.bin", Size: *size}
	cands := []string{"r1", "r2", "r3"}
	tracker := core.NewTracker()
	var improvements []float64
	indirect := 0

	fmt.Printf("real-TCP mini-study: %d rounds, %d-byte object, %d-byte probe\n",
		*rounds, *size, *probe)
	for i := 0; i < *rounds; i++ {
		direct := directDist.Sample(rng)
		d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: direct})
		for name, addr := range relays {
			d.SetProfile(addr, shaper.PathProfile{DownloadBps: relayRate[name]})
		}

		// Control process: the whole object on the direct path.
		ctrl := tr.Start(obj, core.Path{}, 0, obj.Size)
		// Selecting process: probe, commit, fetch remainder.
		out := core.SelectAndFetch(tr, obj, cands, core.Config{ProbeBytes: *probe, Observer: observer, Spans: spans})
		tr.Wait(ctrl)
		if out.Err != nil || ctrl.Result().Err != nil {
			logger.Error("round failed", "round", i, "sel_err", out.Err, "ctrl_err", ctrl.Result().Err)
			os.Exit(1)
		}
		tracker.Observe(cands, out.Selected)
		imp := core.Improvement(out.Throughput(), ctrl.Result().Throughput())
		improvements = append(improvements, imp)
		if out.SelectedIndirect() {
			indirect++
		}
		fmt.Printf("  round %2d: direct=%5.1f Mb/s selected=%-10s improvement=%+6.1f%%\n",
			i+1, direct/1e6, out.Selected, imp)
	}

	s := stats.Summarize(improvements)
	fmt.Printf("\nutilization %.0f%%  avg improvement %.1f%%  median %.1f%%\n",
		100*float64(indirect)/float64(*rounds), s.Mean, s.Median)
	for _, name := range cands {
		fmt.Printf("  %s: offered %d, chosen %d (%.0f%%)\n",
			name, tracker.InSet(name), tracker.Chosen(name), 100*tracker.Utilization(name))
	}

	// The same story retold by the observability layer (paper §V): one
	// event stream covering engine selections and transport retries.
	snap := m.Snapshot()
	fmt.Printf("\nobserved: %d selections (%d indirect), %d probes, %d retries, %d aborts\n",
		snap.Selections, snap.SelectionsIndirect, snap.ProbesStarted, snap.Retries, snap.Aborts)
	for _, label := range snap.PathLabels() {
		ps := snap.Paths[label]
		fmt.Printf("  %-8s probed %3d  selected %3d  utilization %.0f%%\n",
			label, ps.Probed, ps.Selected, 100*ps.Utilization)
	}

	// Connection economics: with the per-path idle pool, every warm
	// remainder and every repeat probe should ride an existing conn.
	pool := tr.PoolStats()
	fmt.Printf("pool: %d reuses, %d misses, %d parked, %d evicted, %d discarded, %d idle\n",
		pool.Reuses, pool.Misses, pool.Parked, pool.Evicted, pool.Discarded, pool.Idle)
	fmt.Printf("streamed %d bytes through the transport in %d-byte chunks or smaller\n",
		snap.BytesStreamed, 64<<10)

	// Damped path health from the same stream: the telemetry view an
	// operator would see on /debug/paths after this workload.
	hs := health.Snapshot()
	fmt.Printf("\npath health (window %.0fs):\n", health.Config().Window)
	for _, ph := range hs.Paths {
		fmt.Printf("  %-28s %-8s score %.2f  ewma %6.2f Mb/s  ok %d fail %d\n",
			ph.Path, ph.State, ph.Score, ph.ThroughputEWMA, ph.Ok, ph.Failed)
	}

	if spans != nil {
		printPhaseBreakdown(spans)
	}
}

// printPhaseBreakdown aggregates every recorded span by service/phase and
// prints where wall-clock time went across the whole study — the
// cross-process answer to "is selection latency dial, TTFB, or stream?".
func printPhaseBreakdown(spans *obs.SpanCollector) {
	all := spans.Spans()
	byPhase := map[string][]float64{}
	var keys []string
	for _, s := range all {
		k := s.Service + "/" + s.Phase
		if _, seen := byPhase[k]; !seen {
			keys = append(keys, k)
		}
		byPhase[k] = append(byPhase[k], float64(s.Duration)/1e6) // ms
	}
	sort.Strings(keys)
	fmt.Printf("\nper-phase span breakdown (%d spans, %d dropped):\n",
		spans.Seen(), spans.Dropped())
	for _, k := range keys {
		sum := stats.Summarize(byPhase[k])
		fmt.Printf("  %-22s n=%4d  median %9.3f ms  p90 %9.3f ms  max %9.3f ms\n",
			k, sum.N, sum.Median, sum.P90, sum.Max)
	}
}
