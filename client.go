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
}

// Option configures a Client.
type Option func(*Client)

// New returns a Client over the given transport. Without options it
// reproduces the paper's defaults: 100 KB probes, first-finished rule,
// no timeout, no retry.
//
// Every Client carries its own Metrics collector — Metrics and Snapshot
// read it — that folds each finished operation. Nothing needs wiring
// into the transport.
func New(t Transport, opts ...Option) *Client {
	c := &Client{transport: t, cfg: core.Config{Metrics: obs.NewMetrics()}}
	for _, o := range opts {
		o(c)
	}
	// Tracing wires one store through both layers: the engine's records
	// are the root spans, the real transport's the per-phase children and
	// the wire header.
	if rt, ok := t.(*realnet.Transport); ok && c.cfg.Flight != nil {
		rt.Flight = c.cfg.Flight
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

// WithHealthMonitor attaches a path-health monitor to the client: it is
// linked to the client's Metrics (Metrics.Health), so every finished
// operation folds into the monitor's per-path rolling windows, and
// Client.PathHealth reads the damped health view. A nil monitor is
// ignored.
func WithHealthMonitor(h *HealthMonitor) Option {
	return func(c *Client) {
		if h != nil {
			c.cfg.Metrics.Health = h
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
	return func(c *Client) { c.cfg.Flight = rec }
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

// Metrics returns the client's metrics collector, live: it keeps
// accumulating as the client runs. A downloader constructed outside the
// client records into the same tally (and health monitor) when given it
// as its Metrics.
func (c *Client) Metrics() *Metrics { return c.cfg.Metrics }

// Snapshot captures the client's metrics at this instant — selection and
// cancellation counts, per-path utilization tallies (the paper's §V
// metric), latency/throughput histograms — ready for JSON rendering.
func (c *Client) Snapshot() MetricsSnapshot { return c.cfg.Metrics.Snapshot() }

// PathHealth captures the damped per-path health view — rolling-window
// success/latency/throughput aggregates, score, and state — for every
// path the client has exercised. Empty when no monitor is attached.
func (c *Client) PathHealth() HealthSnapshot {
	if c.cfg.Metrics.Health == nil {
		return HealthSnapshot{}
	}
	return c.cfg.Metrics.Health.Snapshot()
}
