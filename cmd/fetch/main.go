// Command fetch is the indirect-routing client: it probes the direct path
// and every given relay with an initial range request, selects the path
// with the best probe, downloads the remainder over it, and reports the
// per-path probe throughputs and the selection. Ctrl-C cancels the
// transfer (closing its connections); -timeout bounds it.
//
// Usage (against origind + one or more relayd instances):
//
//	fetch -origin 127.0.0.1:8080 -object large.bin -size 4000000 \
//	      -relay campus=127.0.0.1:8081 -relay isp=127.0.0.1:8082
//
// With -registry the relay set is discovered instead of listed by hand
// (comma-separate peered registryd addresses to fail over when one is
// down); -top K narrows discovery to the K relays the registry ranks
// healthiest (the paper's result: ~10 of 35 candidates capture nearly
// all gain). Relays the registry has marked down are excluded.
// -paths attaches a health monitor to the client and prints the per-path
// health snapshot (state, score, throughput EWMA) after the transfer.
// -fleet <addr> skips the transfer entirely and prints the merged fleet
// snapshot (per-relay freshness, fleet totals, worst paths) from an
// aggregating registryd's metrics address.
// -bundle <relay> likewise skips the transfer and pulls the named
// relay's anomaly debug bundles through the metrics address it reported
// to the registry ("all" sweeps every relay in the fleet; a literal
// host:port skips discovery); add -bundle-name to dump one bundle's
// full JSON.
// Result tables go to stdout; operational logging is structured (slog)
// on stderr — see -log-format, -log-level, and -log-components.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/daemon"
	"repro/internal/httpx"
	"repro/internal/obs/fleet"
	"repro/internal/obs/flight"
	"repro/internal/traceio"
)

// logger is the process-wide structured logger, set in main once the
// logging flags are parsed.
var logger *slog.Logger

// fatal logs an error and exits.
func fatal(msg string, args ...any) {
	logger.Error(msg, args...)
	os.Exit(1)
}

type relayList []string

func (r *relayList) String() string     { return strings.Join(*r, ",") }
func (r *relayList) Set(v string) error { *r = append(*r, v); return nil }

// mustOpen opens a span archive for merging; the process exits on error
// and the handle is released at exit.
func mustOpen(path string) *os.File {
	f, err := os.Open(path)
	if err != nil {
		fatal("opening span archive", "path", path, "err", err)
	}
	return f
}

// mergeSpanFiles loads and concatenates span archives (from fetch -spans
// or the daemons' -trace flags).
func mergeSpanFiles(paths []string) []repro.Span {
	var all []repro.Span
	for _, path := range paths {
		merged, comment, err := traceio.ReadSpans(mustOpen(path))
		if err != nil {
			fatal("merging span archive", "path", path, "err", err)
		}
		logger.Info("merged spans", "count", len(merged), "path", path, "comment", comment)
		all = append(all, merged...)
	}
	return all
}

// printStitched renders every trace in the span set as an indented
// cross-process timeline.
func printStitched(all []repro.Span) {
	for _, id := range repro.TraceIDs(all) {
		fmt.Print(repro.FormatTrace(id, repro.StitchTrace(id, all)))
	}
}

// printFleet pulls /debug/fleet from an aggregating registryd's metrics
// address and renders the whole-fleet view as a table.
func printFleet(ctx context.Context, addr string, timeout time.Duration) {
	status, _, body, err := httpx.Get(ctx, nil, addr, "/debug/fleet", nil, timeout)
	if err != nil {
		fatal("fleet snapshot failed", "addr", addr, "err", err)
	}
	if status != 200 {
		fatal("fleet snapshot failed", "addr", addr, "status", status,
			"hint", "is registryd running with -fleet-every?")
	}
	var snap fleet.Snapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		fatal("decoding fleet snapshot", "addr", addr, "err", err)
	}
	fmt.Printf("fleet @ %s: %d relays (%d live, %d stale), %d scrapes (%d errors)\n",
		snap.Time.Format(time.RFC3339), len(snap.Relays), snap.Live, snap.Stale,
		snap.Scrapes, snap.ScrapeErrs)
	for _, rs := range snap.Relays {
		age := "never"
		if rs.AgeSeconds >= 0 {
			age = fmt.Sprintf("%.1fs", rs.AgeSeconds)
		}
		state := "live"
		if rs.Stale {
			state = "STALE"
		}
		health := "unreported"
		if rs.Health >= 0 {
			health = fmt.Sprintf("%.3f", rs.Health)
		}
		fmt.Printf("  %-12s %-21s %-5s age %-7s health %-10s %8.0f reqs %12.0f bytes  p99 %6.1fms\n",
			rs.Name, rs.Addr, state, age, health,
			rs.Requests, rs.BytesRelayed, rs.ForwardLatency.P99*1e3)
		if rs.Err != "" {
			fmt.Printf("  %-12s last scrape error: %s\n", "", rs.Err)
		}
	}
	fmt.Printf("totals (live): %.0f requests, %.0f bytes relayed, forward p50/p90/p99 %.1f/%.1f/%.1f ms\n",
		snap.Requests, snap.BytesRelayed,
		snap.ForwardLatency.P50*1e3, snap.ForwardLatency.P90*1e3, snap.ForwardLatency.P99*1e3)
	if len(snap.WorstPaths) > 0 {
		fmt.Printf("worst paths:\n")
		for _, wp := range snap.WorstPaths {
			fmt.Printf("  %-12s %-24s %-9s score %.3f  success %.3f  p99 %6.1fms\n",
				wp.Relay, wp.Path.Path, wp.Path.State, wp.Path.Score,
				wp.Path.SuccessRate, wp.Path.LatencyP99*1e3)
		}
	}
}

// bundleTarget is one daemon whose flight-recorder bundles -bundle
// pulls: a name for the report plus the metrics address to scrape.
type bundleTarget struct{ name, addr string }

// resolveBundleTargets turns the -bundle argument into metrics
// addresses: a literal host:port is used as-is; otherwise the registry
// is asked for the fleet and the argument names one relay — or "all"
// for every relay that reported a metrics address.
func resolveBundleTargets(ctx context.Context, arg, regAddr string, timeout time.Duration) []bundleTarget {
	if strings.Contains(arg, ":") {
		return []bundleTarget{{name: arg, addr: arg}}
	}
	if regAddr == "" {
		fatal("-bundle with a relay name needs -registry (or pass a metrics host:port)")
	}
	addrs := strings.Split(regAddr, ",")
	rc := repro.NewRegistryClient(addrs[0],
		repro.WithRegistryTimeout(timeout),
		repro.WithRegistryRetry(1, 200*time.Millisecond),
		repro.WithRegistryFallbackPeers(addrs[1:]...))
	defer rc.Close()
	// LISTH, not LIST: only the ranked listing carries the metrics
	// address a relay's heartbeat advertises.
	entries, err := rc.ListRanked(ctx, 0)
	if err != nil {
		fatal("registry discovery failed", "registry", regAddr, "err", err)
	}
	var targets []bundleTarget
	for _, e := range entries {
		if arg != "all" && e.Name != arg {
			continue
		}
		if e.MetricsAddr == "" {
			logger.Warn("relay reports no metrics address", "relay", e.Name)
			continue
		}
		targets = append(targets, bundleTarget{name: e.Name, addr: e.MetricsAddr})
	}
	if len(targets) == 0 {
		fatal("no matching relay with a metrics address", "bundle", arg, "registry", regAddr)
	}
	return targets
}

// printBundles pulls /debug/bundle from each target's flight recorder:
// the retained-bundle listing per relay, or — with name set — one full
// bundle as raw JSON (fleet-wide, the first relay holding it wins).
func printBundles(ctx context.Context, targets []bundleTarget, name string, timeout time.Duration) {
	if name != "" {
		for _, t := range targets {
			status, _, body, err := httpx.Get(ctx, nil, t.addr, "/debug/bundle?name="+name, nil, timeout)
			if err != nil || status != 200 {
				continue
			}
			os.Stdout.Write(body)
			return
		}
		fatal("no target holds bundle", "name", name)
	}
	for _, t := range targets {
		status, _, body, err := httpx.Get(ctx, nil, t.addr, "/debug/bundle", nil, timeout)
		if err != nil {
			fatal("bundle listing failed", "target", t.addr, "err", err)
		}
		if status != 200 {
			fatal("bundle listing failed", "target", t.addr, "status", status,
				"hint", "is the daemon running with its flight recorder on?")
		}
		var listing struct {
			Stats   flight.EngineStats  `json:"stats"`
			Bundles []flight.BundleInfo `json:"bundles"`
		}
		if err := json.Unmarshal(body, &listing); err != nil {
			fatal("decoding bundle listing", "target", t.addr, "err", err)
		}
		fmt.Printf("%s (%s): %d bundles  fired %d  suppressed %d  dropped %d  write-failures %d\n",
			t.name, t.addr, len(listing.Bundles), listing.Stats.Fired,
			listing.Stats.Suppressed, listing.Stats.Dropped, listing.Stats.WriteFailures)
		for _, b := range listing.Bundles {
			fmt.Printf("  %-32s %-14s path %-24s at %8.1fs  %3d events  %d traces\n",
				b.Name, b.Reason, b.Path, b.At, b.Events, b.TraceCount)
		}
	}
}

// progressPrinter renders a live progress line from the streaming
// transport's per-chunk events. Probes are over in well under a refresh
// interval, so only transfers larger than minTotal (the remainder) are
// shown, throttled to one repaint per 200 ms plus a final 100% line.
type progressPrinter struct {
	repro.BaseObserver
	minTotal int64
	mu       sync.Mutex
	last     time.Time
}

func (p *progressPrinter) TransferProgress(e repro.ProgressEvent) {
	if e.Total < p.minTotal {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	done := e.Delivered >= e.Total
	now := time.Now()
	if !done && now.Sub(p.last) < 200*time.Millisecond {
		return
	}
	p.last = now
	fmt.Printf("\r  %-12s %6.1f%%  %12d / %d bytes",
		e.Path.Label(), 100*float64(e.Delivered)/float64(e.Total), e.Delivered, e.Total)
	if done {
		fmt.Println()
	}
}

func main() {
	var relays relayList
	origin := flag.String("origin", "127.0.0.1:8080", "origin server address")
	object := flag.String("object", "large.bin", "object name")
	size := flag.Int64("size", 0, "object size in bytes (0 = discover via HEAD)")
	probe := flag.Int64("probe", repro.DefaultProbeBytes, "probe size x in bytes")
	verify := flag.Bool("verify", true, "verify synthetic content")
	adaptive := flag.Bool("adaptive", false, "download adaptively: segmented fetches with periodic re-races and failover")
	segment := flag.Int64("segment", 1_000_000, "adaptive mode: segment size in bytes")
	timeout := flag.Duration("timeout", 0, "overall transfer deadline (0 = none)")
	retries := flag.Int("retries", 0, "retry a transfer that delivered nothing up to N times")
	regAddr := flag.String("registry", "", "discover relays from this registry; comma-separate peered registries to fail over (in addition to -relay flags)")
	regTimeout := flag.Duration("registry-timeout", 5*time.Second, "per-request registry deadline")
	topK := flag.Int("top", 0, "discover only the K healthiest relays, ranked by the registry (0 = all)")
	showStats := flag.Bool("stats", false, "print the metrics snapshot (JSON) after the transfer")
	showPaths := flag.Bool("paths", false, "track path health during the transfer and print the snapshot (JSON) after")
	showProgress := flag.Bool("progress", false, "print live transfer progress for the remainder")
	spanFile := flag.String("spans", "", "record distributed-tracing spans and write them as JSONL to this file")
	stitch := flag.Bool("stitch", false, "print the stitched span timeline after the transfer (implies span recording)")
	fleetAddr := flag.String("fleet", "", "print the fleet snapshot from this registryd metrics address and exit")
	bundleRelay := flag.String("bundle", "", "print debug bundles from this relay (name via -registry, \"all\" for the fleet, or a metrics host:port) and exit")
	bundleName := flag.String("bundle-name", "", "with -bundle: print this one bundle as full JSON instead of the listing")
	var mergeFiles relayList
	flag.Var(&mergeFiles, "merge", "span archive (from relayd/origind -trace) to merge into the stitched timeline (repeatable)")
	flag.Var(&relays, "relay", "relay spec name=addr (repeatable)")
	mkLog := daemon.LogFlags()
	flag.Parse()
	logger = mkLog("fetch")

	// Fleet browsing: ask an aggregating registryd for its merged view of
	// the relay fleet instead of transferring anything.
	if *fleetAddr != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		printFleet(ctx, *fleetAddr, *regTimeout)
		return
	}

	// Bundle browsing: pull the flight recorder's anomaly bundles off a
	// relay (or the whole fleet) instead of transferring anything.
	if *bundleRelay != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		targets := resolveBundleTargets(ctx, *bundleRelay, *regAddr, *regTimeout)
		printBundles(ctx, targets, *bundleName, *regTimeout)
		return
	}

	// Offline stitching: with no object to transfer, merge already-written
	// span archives (the client's -spans file plus the daemons' shutdown
	// archives) and print the cross-process timelines. No network touched.
	if *object == "" {
		if !*stitch || len(mergeFiles) == 0 {
			fatal(`-object "" needs -stitch and at least one -merge archive`)
		}
		printStitched(mergeSpanFiles(mergeFiles))
		return
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": *origin},
		Relays:  map[string]string{},
		Verify:  *verify,
	}
	var candidates []string
	for _, spec := range relays {
		name, addr, ok := strings.Cut(spec, "=")
		if !ok {
			fatal("bad -relay spec (want name=addr)", "spec", spec)
		}
		tr.Relays[name] = addr
		candidates = append(candidates, name)
	}
	if *regAddr != "" {
		// Health-ranked discovery narrows the probe race to the relays the
		// registry believes are healthiest. The first address is the
		// primary; any further comma-separated addresses are peered
		// registries tried on failure, so discovery survives losing one.
		addrs := strings.Split(*regAddr, ",")
		rc := repro.NewRegistryClient(addrs[0],
			repro.WithRegistryTimeout(*regTimeout),
			repro.WithRegistryRetry(1, 200*time.Millisecond),
			repro.WithRegistryFallbackPeers(addrs[1:]...))
		discovered, err := repro.DiscoverRelays(ctx, rc, *topK)
		rc.Close()
		if err != nil {
			fatal("registry discovery failed", "registry", *regAddr, "err", err)
		}
		for name, addr := range discovered {
			if _, dup := tr.Relays[name]; dup {
				continue
			}
			tr.Relays[name] = addr
			candidates = append(candidates, name)
		}
		logger.Info("discovered relays", "count", len(discovered), "registry", *regAddr,
			"ranked", *topK > 0)
	}

	if *size == 0 {
		discovered, err := tr.StatCtx(ctx, "origin", *object)
		if err != nil {
			fatal("size discovery failed", "object", *object, "err", err)
		}
		*size = discovered
		logger.Info("discovered object size", "object", *object, "bytes", *size)
	}
	obj := repro.Object{Server: "origin", Name: *object, Size: *size}

	opts := []repro.Option{repro.WithProbeBytes(*probe)}
	if *timeout > 0 {
		opts = append(opts, repro.WithTimeout(*timeout))
	}
	if *retries > 0 {
		opts = append(opts, repro.WithRetry(*retries, 200*time.Millisecond))
	}
	var spans *repro.SpanCollector
	if *spanFile != "" || *stitch || len(mergeFiles) > 0 {
		spans = repro.NewSpanCollector(0)
		opts = append(opts, repro.WithSpans(spans))
	}
	if *showPaths {
		opts = append(opts, repro.WithHealthMonitor(
			repro.NewHealthMonitor(repro.HealthConfig{Clock: repro.HealthWallClock()})))
	}
	if *showProgress {
		opts = append(opts, repro.WithObserver(&progressPrinter{minTotal: *probe + 1}))
	}
	client := repro.New(tr, opts...)
	// The transport reports retries and aborts into the same stream the
	// engine feeds, so the snapshot covers the whole pipeline.
	tr.Observer = client.Observer()

	// reportObs emits the observability artifacts the flags asked for.
	reportObs := func() {
		if *showStats {
			fmt.Printf("metrics snapshot:\n%s\n", client.Snapshot().JSON())
			ps := tr.PoolStats()
			fmt.Printf("connection pool: reuses %d, misses %d, parked %d, evicted %d, discarded %d, idle %d\n",
				ps.Reuses, ps.Misses, ps.Parked, ps.Evicted, ps.Discarded, ps.Idle)
		}
		if *showPaths {
			fmt.Printf("path health:\n%s\n", client.PathHealth().JSON())
		}
		if spans == nil {
			return
		}
		if *spanFile != "" {
			f, err := os.Create(*spanFile)
			if err != nil {
				fatal("creating span file", "path", *spanFile, "err", err)
			}
			werr := traceio.WriteSpans(f, "fetch "+*object, spans.Spans())
			if cerr := f.Close(); werr == nil {
				werr = cerr
			}
			if werr != nil {
				fatal("writing spans", "path", *spanFile, "err", werr)
			}
			logger.Info("wrote spans", "count", len(spans.Spans()), "path", *spanFile)
		}
		if *stitch {
			// Merge the daemons' archives (if given) with the client's own
			// spans, then render each trace as one cross-process timeline.
			printStitched(append(spans.Spans(), mergeSpanFiles(mergeFiles)...))
		}
	}

	if *adaptive {
		dl := &repro.Downloader{
			Transport:    tr,
			ProbeBytes:   *probe,
			SegmentBytes: *segment,
			Observer:     client.Observer(),
		}
		res, err := dl.Download(ctx, obj, candidates)
		if err != nil {
			fatal("adaptive download failed", "err", err)
		}
		fmt.Printf("segments:\n")
		for _, s := range res.Segments {
			kind := "fetch"
			if s.Raced {
				kind = "race "
			}
			fmt.Printf("  %s %-20s [%9d +%8d]  %6.2f Mb/s\n",
				kind, s.Path, s.Offset, s.Bytes, s.Throughput/1e6)
		}
		fmt.Printf("switches: %d  failovers: %d  final path: %s\n",
			res.Switches, res.Failovers, res.FinalPath())
		fmt.Printf("downloaded %d bytes in %.3fs -> %.2f Mb/s overall\n",
			obj.Size, res.Duration(), res.Throughput()/1e6)
		reportObs()
		return
	}

	out := client.SelectAndFetch(ctx, obj, candidates)
	if out.Err != nil {
		switch {
		case errors.Is(out.Err, repro.ErrCanceled):
			fatal("transfer canceled", "err", out.Err)
		case errors.Is(out.Err, repro.ErrProbeTimeout):
			fatal("transfer deadline exceeded", "err", out.Err)
		case errors.Is(out.Err, repro.ErrAllPathsFailed):
			fatal("every path failed", "err", out.Err)
		default:
			fatal("transfer failed", "err", out.Err)
		}
	}

	fmt.Printf("probes (%d bytes each):\n", *probe)
	for _, p := range out.Probes {
		fmt.Printf("  %-20s %8.2f Mb/s  (%.3fs)\n", p.Path, p.Throughput()/1e6, p.Duration())
	}
	fmt.Printf("selected: %s\n", out.Selected)
	fmt.Printf("downloaded %d bytes in %.3fs -> %.2f Mb/s overall\n",
		obj.Size, out.Duration(), out.Throughput()/1e6)
	reportObs()
}
