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
	spans     *Recorder
	health    *obs.HealthMonitor
}

// Option configures a Client.
type Option func(*Client)

// New returns a Client over the given transport. Without options it
// reproduces the paper's defaults: 100 KB probes, first-finished rule,
// no timeout, no retry.
//
// Every Client carries a Metrics collector — Metrics and Snapshot read
// it — that folds each finished operation: its own, or the one a
// WithConfig Config names. Nothing needs wiring into the transport.
func New(t Transport, opts ...Option) *Client {
	c := &Client{transport: t}
	for _, o := range opts {
		o(c)
	}
	if c.cfg.Metrics == nil {
		c.cfg.Metrics = obs.NewMetrics()
	}
	if c.health != nil {
		c.cfg.Metrics.Health = c.health
	}
	// Tracing wires one store through both layers: the engine's records
	// are the root spans, the real transport's the per-phase children and
	// the wire header.
	c.cfg.Flight = c.spans
	if rt, ok := t.(*realnet.Transport); ok && c.spans != nil {
		rt.Flight = c.spans
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

// WithConfig replaces the whole selection configuration at once; later
// options still apply on top. A Config that names a Metrics makes that
// collector the client's.
func WithConfig(cfg Config) Option {
	return func(c *Client) { c.cfg = cfg }
}

// WithHealthMonitor attaches a path-health monitor to the client: it is
// linked to the client's Metrics (Metrics.Health), so every finished
// operation folds into the monitor's per-path rolling windows, and
// Client.PathHealth/HealthMonitor read the damped health view. A nil
// monitor is ignored.
func WithHealthMonitor(h *HealthMonitor) Option {
	return func(c *Client) {
		if h != nil {
			c.health = h
		}
	}
}

// WithSpans enables distributed tracing into rec (from NewRecorder):
// every operation finishes a root "select" row there and, when the
// client wraps a *RealTransport, every transfer a row with per-phase
// child spans, its x-trace header stamped so relays and origins continue
// the trace. Spans carry wall-clock times; on the virtual-time simulator
// the option only records engine spans and should generally be left off.
func WithSpans(rec *Recorder) Option {
	return func(c *Client) { c.spans = rec }
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
		Metrics:    c.cfg.Metrics,
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
	mp := &core.MultipathDownloader{Transport: c.transport, Metrics: c.cfg.Metrics}
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

// Metrics returns the client's metrics collector, live: it keeps
// accumulating as the client runs. A downloader constructed outside the
// client records into the same tally (and health monitor) when given it
// as its Metrics.
func (c *Client) Metrics() *Metrics { return c.cfg.Metrics }

// Snapshot captures the client's metrics at this instant — selection and
// cancellation counts, per-path utilization tallies (the paper's §V
// metric), latency/throughput histograms — ready for JSON rendering.
func (c *Client) Snapshot() MetricsSnapshot { return c.cfg.Metrics.Snapshot() }

// Spans returns the store installed with WithSpans, or nil when tracing
// is off.
func (c *Client) Spans() *Recorder { return c.spans }

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
