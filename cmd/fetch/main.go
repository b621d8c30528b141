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
// -fleet <relay> skips the transfer entirely and prints the fleet as the
// relays see themselves: per relay the registry's health and down state,
// then the requests, bytes and per-path health read once from the
// metrics address it reported, then the fleet's worst paths.
// -bundle <relay> likewise skips the transfer and pulls the named
// relay's anomaly debug bundles; add -bundle-name to dump one bundle's
// full JSON. Both take "all" for every relay the registry lists, one
// relay's name, or a literal metrics host:port (no discovery).
// Result tables go to stdout; operational logging is structured (slog)
// on stderr — see -log-format, -log-level, and -log-components.
package main

import (
	"cmp"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"os/signal"
	"slices"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro"
	"repro/internal/daemon"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/registry"
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

// newRegistryClient talks to the first of -registry's comma-separated
// addresses; the others are peered registries tried on failure, so
// discovery survives losing one.
func newRegistryClient(regAddr string, timeout time.Duration) *repro.RegistryClient {
	addrs := strings.Split(regAddr, ",")
	return repro.NewRegistryClient(addrs[0],
		repro.WithRegistryTimeout(timeout),
		repro.WithRegistryRetry(1, 200*time.Millisecond),
		repro.WithRegistryFallbackPeers(addrs[1:]...))
}

// resolveTargets turns a -fleet or -bundle argument into the registry
// entries it names: a literal host:port is one entry whose metrics
// address it is, with no discovery; otherwise the registry's LISTH
// listing, narrowed to the named relay unless the argument is "all".
func resolveTargets(ctx context.Context, arg, regAddr string, timeout time.Duration) ([]repro.RegistryEntry, error) {
	if strings.Contains(arg, ":") {
		return []repro.RegistryEntry{{Name: arg, MetricsAddr: arg, Health: registry.HealthUnreported}}, nil
	}
	if regAddr == "" {
		return nil, fmt.Errorf("relay %q needs -registry (or pass a metrics host:port)", arg)
	}
	rc := newRegistryClient(regAddr, timeout)
	defer rc.Close()
	// LISTH, not LIST: only the ranked listing carries the metrics
	// address a relay's heartbeat advertises.
	entries, err := rc.ListRanked(ctx, 0)
	if err != nil || arg == "all" {
		return entries, err
	}
	for _, e := range entries {
		if e.Name == arg {
			return []repro.RegistryEntry{e}, nil
		}
	}
	return nil, fmt.Errorf("registry lists no relay %q", arg)
}

// getJSON GETs target from a daemon's metrics address and decodes the
// JSON answer into v, returning the status.
func getJSON(ctx context.Context, addr, target string, timeout time.Duration, v any) (int, error) {
	status, _, body, err := httpx.Get(ctx, nil, addr, target, nil, timeout)
	if err == nil && status != 200 {
		err = fmt.Errorf("status %d", status)
	}
	if err == nil {
		err = json.Unmarshal(body, v)
	}
	if err != nil {
		return status, fmt.Errorf("%s: %w", target, err)
	}
	return status, nil
}

// relayView is one -fleet row: the registry's entry plus what the
// relay's own debug pages answered.
type relayView struct {
	repro.RegistryEntry
	vars struct {
		Requests     float64 `json:"requests"`
		BytesRelayed float64 `json:"bytes_relayed"`
	}
	paths []obs.PathHealth
	err   error
}

// read fills the view from the relay's /debug/vars and /debug/paths. A
// relay without a health monitor serves no /debug/paths (404): no path
// view, not an error.
func (v *relayView) read(ctx context.Context, timeout time.Duration) error {
	if _, err := getJSON(ctx, v.MetricsAddr, "/debug/vars", timeout, &v.vars); err != nil {
		return err
	}
	var hs obs.HealthSnapshot
	if status, err := getJSON(ctx, v.MetricsAddr, "/debug/paths", timeout, &hs); err != nil && status != 404 {
		return err
	}
	v.paths = hs.Paths
	return nil
}

// readFleet reads every entry that has a metrics address, at most
// fleetReaders at once, each GET bounded by timeout.
func readFleet(ctx context.Context, entries []repro.RegistryEntry, timeout time.Duration) []relayView {
	views := make([]relayView, len(entries))
	var wg sync.WaitGroup
	sem := make(chan struct{}, fleetReaders)
	for i, e := range entries {
		views[i].RegistryEntry = e
		if e.MetricsAddr == "" {
			continue
		}
		wg.Add(1)
		sem <- struct{}{}
		go func(v *relayView) {
			defer func() { <-sem; wg.Done() }()
			v.err = v.read(ctx, timeout)
		}(&views[i])
	}
	wg.Wait()
	return views
}

// fleetReaders bounds the relays -fleet reads at once (a listing can be
// the whole registry); fleetWorstPaths bounds the worst paths it prints.
const (
	fleetReaders    = 16
	fleetWorstPaths = 10
)

// worstPath is one path as one relay's health monitor sees it.
type worstPath struct {
	relay string
	obs.PathHealth
}

// printFleet renders the views: one row per relay, a totals line over
// the relays that answered, and the lowest-scoring paths fleet-wide.
func printFleet(w io.Writer, views []relayView) {
	var requests, bytes float64
	var answered int
	var worst []worstPath
	for _, v := range views {
		health, state := "unreported", "up"
		if v.Health >= 0 {
			health = fmt.Sprintf("%.3f", v.Health)
		}
		if v.Down {
			state = "DOWN"
		}
		fmt.Fprintf(w, "  %-12s %-21s %-4s health %-10s ", v.Name, v.Addr, state, health)
		switch {
		case v.MetricsAddr == "":
			fmt.Fprintln(w, "no metrics address")
			continue
		case v.err != nil:
			fmt.Fprintf(w, "error: %v\n", v.err)
			continue
		}
		answered++
		requests += v.vars.Requests
		bytes += v.vars.BytesRelayed
		fmt.Fprintf(w, "%8.0f reqs %12.0f bytes", v.vars.Requests, v.vars.BytesRelayed)
		for _, p := range v.paths {
			worst = append(worst, worstPath{v.Name, p})
		}
		if len(v.paths) > 0 {
			p := slices.MinFunc(v.paths, func(a, b obs.PathHealth) int { return cmp.Compare(a.Score, b.Score) })
			fmt.Fprintf(w, "  worst-path p99 %6.1fms", p.LatencyP99*1e3)
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintf(w, "totals (%d of %d relays answered): %.0f requests, %.0f bytes relayed\n",
		answered, len(views), requests, bytes)
	slices.SortFunc(worst, func(a, b worstPath) int {
		return cmp.Or(cmp.Compare(a.Score, b.Score), cmp.Compare(a.relay, b.relay), cmp.Compare(a.Path, b.Path))
	})
	if len(worst) > fleetWorstPaths {
		worst = worst[:fleetWorstPaths]
	}
	if len(worst) > 0 {
		fmt.Fprintln(w, "worst paths:")
	}
	for _, p := range worst {
		fmt.Fprintf(w, "  %-12s %-24s %-9s score %.3f  success %.3f  p99 %6.1fms\n",
			p.relay, p.Path, p.State, p.Score, p.SuccessRate, p.LatencyP99*1e3)
	}
}

// printBundles pulls /debug/bundle from each target's flight recorder
// and writes to w the retained-bundle listing per relay, or — with name
// set — one full bundle as raw JSON (fleet-wide, the first relay holding
// it wins).
func printBundles(ctx context.Context, w io.Writer, targets []repro.RegistryEntry, name string, timeout time.Duration) {
	if name != "" {
		for _, t := range targets {
			status, _, body, err := httpx.Get(ctx, nil, t.MetricsAddr, "/debug/bundle?name="+name, nil, timeout)
			if err != nil || status != 200 {
				continue
			}
			w.Write(body)
			return
		}
		fatal("no target holds bundle", "name", name)
	}
	for _, t := range targets {
		var listing struct {
			Stats   flight.EngineStats  `json:"stats"`
			Bundles []flight.BundleInfo `json:"bundles"`
		}
		if _, err := getJSON(ctx, t.MetricsAddr, "/debug/bundle", timeout, &listing); err != nil {
			fatal("bundle listing failed", "target", t.MetricsAddr, "err", err,
				"hint", "is the daemon running with its flight recorder on?")
		}
		fmt.Fprintf(w, "%s (%s): %d bundles  fired %d  suppressed %d  dropped %d  write-failures %d\n",
			t.Name, t.MetricsAddr, len(listing.Bundles), listing.Stats.Fired,
			listing.Stats.Suppressed, listing.Stats.Dropped, listing.Stats.WriteFailures)
		for _, b := range listing.Bundles {
			fmt.Fprintf(w, "  %-32s %-14s path %-24s at %8.1fs  %3d events  %d traces\n",
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
	fleetArg := flag.String("fleet", "", "print each relay's registry health, counters and paths (name via -registry, \"all\" for the fleet, or a metrics host:port) and exit")
	bundleRelay := flag.String("bundle", "", "print debug bundles from this relay (name via -registry, \"all\" for the fleet, or a metrics host:port) and exit")
	bundleName := flag.String("bundle-name", "", "with -bundle: print this one bundle as full JSON instead of the listing")
	var mergeFiles relayList
	flag.Var(&mergeFiles, "merge", "span archive (from relayd/origind -trace) to merge into the stitched timeline (repeatable)")
	flag.Var(&relays, "relay", "relay spec name=addr (repeatable)")
	mkLog := daemon.LogFlags()
	flag.Parse()
	logger = mkLog("fetch")

	// Fleet and bundle browsing read the relays' own debug pages, found
	// through the registry, instead of transferring anything.
	if *fleetArg != "" || *bundleRelay != "" {
		ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
		defer stop()
		arg := cmp.Or(*fleetArg, *bundleRelay)
		entries, err := resolveTargets(ctx, arg, *regAddr, *regTimeout)
		if err != nil {
			fatal("resolving relays", "arg", arg, "registry", *regAddr, "err", err)
		}
		if *fleetArg != "" {
			printFleet(os.Stdout, readFleet(ctx, entries, *regTimeout))
			return
		}
		var targets []repro.RegistryEntry
		for _, e := range entries {
			if e.MetricsAddr == "" {
				logger.Warn("relay reports no metrics address", "relay", e.Name)
				continue
			}
			targets = append(targets, e)
		}
		if len(targets) == 0 {
			fatal("no matching relay with a metrics address", "bundle", arg, "registry", *regAddr)
		}
		printBundles(ctx, os.Stdout, targets, *bundleName, *regTimeout)
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
		// registry believes are healthiest.
		rc := newRegistryClient(*regAddr, *regTimeout)
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
