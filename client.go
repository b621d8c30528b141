package repro

import (
	"context"
	"errors"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/realnet"
)

// Sentinel errors, re-exported so downstream callers can classify
// failures with errors.Is without importing internal packages:
//
//	out := c.SelectAndFetch(ctx, obj, cands)
//	switch {
//	case errors.Is(out.Err, repro.ErrProbeTimeout):   // path too slow: penalty
//	case errors.Is(out.Err, repro.ErrCanceled):       // caller abandoned it
//	case errors.Is(out.Err, repro.ErrAllPathsFailed): // outage: nothing delivered
//	}
var (
	// ErrAllPathsFailed reports that every candidate path (including
	// direct) failed during an operation.
	ErrAllPathsFailed = core.ErrAllPathsFailed
	// ErrCanceled reports a transfer abandoned by context cancellation.
	ErrCanceled = core.ErrCanceled
	// ErrProbeTimeout reports a transfer whose deadline expired.
	ErrProbeTimeout = core.ErrProbeTimeout
)

// Client is the context-first facade over the selection engine: it binds
// a Transport to a probing/selection configuration, an optional
// per-operation timeout, and an optional bounded retry policy. A Client
// is safe for concurrent use when its Transport is (RealTransport is;
// the virtual-time simulator, being single-clocked, is not).
//
//	c := repro.New(tr,
//	    repro.WithProbeBytes(150_000),
//	    repro.WithTimeout(30*time.Second),
//	    repro.WithRetry(2, 200*time.Millisecond))
//	out := c.SelectAndFetch(ctx, obj, []string{"campus", "isp"})
type Client struct {
	transport Transport
	cfg       core.Config
	timeout   time.Duration
	retries   int
	backoff   time.Duration
	poolSize  int
	idleTTL   time.Duration
	cacheSize int64
	cacheTTL  time.Duration
	metrics   *obs.Metrics
	observers []obs.Observer
	spans     *obs.SpanCollector
	health    *obs.HealthMonitor
}

// Option configures a Client.
type Option func(*Client)

// New returns a Client over the given transport. Without options it
// reproduces the paper's defaults: 100 KB probes, first-finished rule,
// no timeout, no retry.
//
// Every Client carries a built-in Metrics collector — Metrics and
// Snapshot read it — and WithObserver attaches further sinks alongside
// it.
func New(t Transport, opts ...Option) *Client {
	c := &Client{transport: t, metrics: obs.NewMetrics()}
	for _, o := range opts {
		o(c)
	}
	// Fan out to the built-in collector, anything WithConfig installed,
	// and every WithObserver sink, in that order.
	c.cfg.Observer = obs.Multi(append([]obs.Observer{c.metrics, c.cfg.Observer}, c.observers...)...)
	// Tracing wires through both layers: the engine opens root spans, the
	// real transport records per-phase children and the wire header.
	c.cfg.Spans = c.spans
	// The pool knobs configure the real transport; other transports have
	// no connection pool and ignore them.
	if rt, ok := t.(*realnet.Transport); ok {
		if c.poolSize != 0 {
			rt.MaxIdlePerPath = c.poolSize
		}
		if c.idleTTL != 0 {
			rt.IdleTTL = c.idleTTL
		}
		if c.cacheSize > 0 {
			rt.CacheBytes = c.cacheSize
		}
		if c.cacheTTL != 0 {
			rt.CacheTTL = c.cacheTTL
		}
		if c.spans != nil {
			rt.Spans = c.spans
		}
	}
	return c
}

// WithProbeBytes sets the probe size x (the paper's experimentally
// determined default is 100 KB).
func WithProbeBytes(x int64) Option {
	return func(c *Client) { c.cfg.ProbeBytes = x }
}

// WithRule sets the probe-comparison rule (FirstFinished by default).
func WithRule(r Rule) Option {
	return func(c *Client) { c.cfg.Rule = r }
}

// WithSequentialProbes probes candidates one at a time instead of racing
// them, keeping measurements contention-free at the cost of a longer
// probing phase (implies the MaxThroughput rule).
func WithSequentialProbes() Option {
	return func(c *Client) { c.cfg.Sequential = true }
}

// WithConfig replaces the whole selection configuration at once; later
// options still apply on top.
func WithConfig(cfg Config) Option {
	return func(c *Client) { c.cfg = cfg }
}

// WithObserver attaches an observer to the client: it receives every
// selection-lifecycle event (probe start/finish, loser cancellation,
// selection, transfers) from every operation, alongside the client's
// built-in Metrics collector. May be given multiple times; observers are
// invoked in registration order and must be safe for concurrent use.
func WithObserver(o Observer) Option {
	return func(c *Client) {
		if o != nil {
			c.observers = append(c.observers, o)
		}
	}
}

// WithPoolSize bounds the idle keep-alive connections a RealTransport
// parks per path (negative disables pooling). Only meaningful when the
// client wraps a *RealTransport; other transports ignore it.
func WithPoolSize(n int) Option {
	return func(c *Client) { c.poolSize = n }
}

// WithIdleTTL sets how long a RealTransport keeps an idle pooled
// connection before evicting it (negative disables expiry). Only
// meaningful when the client wraps a *RealTransport.
func WithIdleTTL(d time.Duration) Option {
	return func(c *Client) { c.idleTTL = d }
}

// WithCacheSize gives a RealTransport a bounded client-side object
// cache of the given byte capacity: every streamed range also fills
// the cache, and a later fetch fully covered by cached spans completes
// without touching the network. Zero (the default) disables caching —
// the transfer path, including its allocation profile, is then
// untouched. Only meaningful when the client wraps a *RealTransport.
func WithCacheSize(bytes int64) Option {
	return func(c *Client) { c.cacheSize = bytes }
}

// WithCacheTTL expires a RealTransport's cached spans this long after
// their fill; 0 keeps them until evicted by capacity pressure. Only
// meaningful together with WithCacheSize.
func WithCacheTTL(d time.Duration) Option {
	return func(c *Client) { c.cacheTTL = d }
}

// WithHealthMonitor attaches a path-health monitor to the client: every
// selection-lifecycle event folds into the monitor's per-path rolling
// windows, and Client.PathHealth/HealthMonitor read the damped health
// view. A nil monitor is ignored (the hot path stays free of health
// bookkeeping — realnet's TestWarmFetchAllocCeiling pins a warm fetch
// at 32 allocations with no monitor attached).
func WithHealthMonitor(h *HealthMonitor) Option {
	return func(c *Client) {
		// The nil check must happen on the concrete pointer: appending a
		// typed-nil *HealthMonitor as an Observer would defeat obs.Multi's
		// interface nil-skip and panic on the first event.
		if h != nil {
			c.health = h
			c.observers = append(c.observers, h)
		}
	}
}

// WithSpans enables distributed tracing: the engine opens root spans per
// operation in the collector and, when the client wraps a *RealTransport,
// the transport records per-phase child spans and stamps the x-trace
// header so relays and origins continue the trace. Spans carry wall-clock
// times; on the virtual-time simulator the option only records engine
// spans and should generally be left off.
func WithSpans(sc *SpanCollector) Option {
	return func(c *Client) { c.spans = sc }
}

// WithTimeout bounds each operation attempt: the attempt's context gets
// this deadline unless the caller's context expires sooner. Expiry
// surfaces as ErrProbeTimeout.
func WithTimeout(d time.Duration) Option {
	return func(c *Client) { c.timeout = d }
}

// WithRetry retries a failed operation up to n more times, sleeping
// backoff, 2*backoff, ... between attempts. Only genuine delivery
// failures are retried — an outcome whose object arrived (even if some
// losing probe failed) and operations abandoned by the caller's context
// are not.
func WithRetry(n int, backoff time.Duration) Option {
	return func(c *Client) {
		c.retries = n
		if backoff > 0 {
			c.backoff = backoff
		} else {
			c.backoff = 100 * time.Millisecond
		}
	}
}

func (c *Client) probeBytes() int64 {
	if c.cfg.ProbeBytes > 0 {
		return c.cfg.ProbeBytes
	}
	return DefaultProbeBytes
}

// attemptCtx derives one attempt's context from the caller's.
func (c *Client) attemptCtx(ctx context.Context) (context.Context, context.CancelFunc) {
	if c.timeout <= 0 {
		return context.WithCancel(ctx)
	}
	return context.WithTimeout(ctx, c.timeout)
}

// sleepBackoff waits before retry attempt (1-based); it returns false if
// ctx died first.
func (c *Client) sleepBackoff(ctx context.Context, attempt int) bool {
	timer := time.NewTimer(c.backoff << (attempt - 1))
	defer timer.Stop()
	select {
	case <-timer.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// retryable reports whether an operation error is worth another attempt:
// cancellation by the caller never is.
func retryable(ctx context.Context, err error) bool {
	if err == nil || ctx.Err() != nil {
		return false
	}
	return !errors.Is(err, ErrCanceled)
}

// SelectAndFetch runs the paper's full client operation under ctx: probe
// the direct path and all candidates, commit to the winner (cancelling
// the losing probes; the simulator lets them drain), and fetch the
// remainder over it. With WithRetry, an attempt that delivered nothing
// is retried with backoff; an outcome that delivered the object is
// returned as-is even if a losing probe failed.
func (c *Client) SelectAndFetch(ctx context.Context, obj Object, candidates []string) Outcome {
	for attempt := 0; ; attempt++ {
		actx, cancel := c.attemptCtx(ctx)
		out := core.SelectAndFetch(actx, c.transport, obj, candidates, c.cfg)
		cancel()
		failed := errors.Is(out.Err, ErrAllPathsFailed) || out.Remainder.Err != nil
		if !failed || attempt >= c.retries || !retryable(ctx, out.Err) {
			return out
		}
		if !c.sleepBackoff(ctx, attempt+1) {
			return out
		}
	}
}

// Probe races an x-sized range request (the client's configured probe
// size) on the direct path and every candidate concurrently.
func (c *Client) Probe(ctx context.Context, obj Object, candidates []string) []ProbeResult {
	return core.Probe(ctx, c.transport, obj, candidates, c.cfg)
}

// ProbeSequential probes the direct path and each candidate one at a
// time, contention-free.
func (c *Client) ProbeSequential(ctx context.Context, obj Object, candidates []string) []ProbeResult {
	return core.ProbeSequential(ctx, c.transport, obj, candidates, c.cfg)
}

// Download fetches obj adaptively (segmented fetches, periodic re-races,
// failover) under ctx. With WithRetry, a download that failed outright
// is retried from the beginning with backoff.
func (c *Client) Download(ctx context.Context, obj Object, candidates []string) (DownloadResult, error) {
	dl := &core.Downloader{
		Transport:  c.transport,
		ProbeBytes: c.cfg.ProbeBytes,
		Rule:       c.cfg.Rule,
		Observer:   c.cfg.Observer,
	}
	for attempt := 0; ; attempt++ {
		actx, cancel := c.attemptCtx(ctx)
		res, err := dl.Download(actx, obj, candidates)
		cancel()
		if err == nil || attempt >= c.retries || !retryable(ctx, err) {
			return res, err
		}
		if !c.sleepBackoff(ctx, attempt+1) {
			return res, err
		}
	}
}

// Multipath stripes obj across the direct path and all candidates
// concurrently (Bullet-style work stealing) under ctx.
func (c *Client) Multipath(ctx context.Context, obj Object, candidates []string) (MultipathResult, error) {
	mp := &core.MultipathDownloader{Transport: c.transport, Observer: c.cfg.Observer}
	actx, cancel := c.attemptCtx(ctx)
	defer cancel()
	return mp.Download(actx, obj, candidates)
}

// SelectMonitored performs a probe-free transfer under ctx using the
// monitor's path table, feeding the outcome back into it.
func (c *Client) SelectMonitored(ctx context.Context, obj Object, candidates []string, m *Monitor) Outcome {
	actx, cancel := c.attemptCtx(ctx)
	defer cancel()
	return core.SelectMonitored(actx, c.transport, obj, candidates, m, c.cfg)
}

// Transport returns the transport the client is bound to.
func (c *Client) Transport() Transport { return c.transport }

// Metrics returns the client's built-in metrics collector, live: it keeps
// accumulating as the client runs.
func (c *Client) Metrics() *Metrics { return c.metrics }

// Observer returns the client's composed observer — the built-in
// metrics collector plus every WithObserver sink — for wiring into
// transports (RealTransport.Observer) or downloaders constructed
// outside the client, so they feed the same event stream.
func (c *Client) Observer() Observer { return c.cfg.Observer }

// Snapshot captures the client's metrics at this instant — selection and
// cancellation counts, per-path utilization tallies (the paper's §V
// metric), latency/throughput histograms — ready for JSON rendering.
func (c *Client) Snapshot() MetricsSnapshot { return c.metrics.Snapshot() }

// Spans returns the span collector installed with WithSpans, or nil when
// tracing is off.
func (c *Client) Spans() *SpanCollector { return c.spans }

// HealthMonitor returns the monitor installed with WithHealthMonitor,
// or nil when health tracking is off.
func (c *Client) HealthMonitor() *HealthMonitor { return c.health }

// PathHealth captures the damped per-path health view — rolling-window
// success/latency/throughput aggregates, score, and state — for every
// path the client has exercised. Empty when no monitor is attached.
func (c *Client) PathHealth() HealthSnapshot {
	if c.health == nil {
		return HealthSnapshot{}
	}
	return c.health.Snapshot()
}

// CacheStats captures the client-side object cache's counters — hits,
// misses, fills, evictions, byte gauges, and the derived warmth score —
// when the client wraps a *RealTransport built with WithCacheSize. The
// zero CacheStats (capacity 0) otherwise.
func (c *Client) CacheStats() CacheStats {
	if rt, ok := c.transport.(*realnet.Transport); ok {
		return rt.CacheStats()
	}
	return CacheStats{}
}
