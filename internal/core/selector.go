package core

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Rule is the probe-comparison rule used to select a path.
type Rule int

// Selection rules. The paper's mechanism is FirstFinished: the client
// requests the remainder over whichever path returned the probe range
// first. MaxThroughput compares measured probe throughputs instead; with
// equal probe sizes the two agree unless probes start at different times.
const (
	FirstFinished Rule = iota
	MaxThroughput
)

func (r Rule) String() string {
	switch r {
	case FirstFinished:
		return "first-finished"
	case MaxThroughput:
		return "max-throughput"
	}
	return "unknown"
}

// DefaultProbeBytes is the paper's experimentally determined probe size:
// 100 KB is large enough to out-last TCP slow start and marginalize its
// effect on the throughput estimate.
const DefaultProbeBytes = 100_000

// Config parameterizes the selection engine.
type Config struct {
	// ProbeBytes is the size x of the initial range request
	// (DefaultProbeBytes when 0).
	ProbeBytes int64
	// Rule picks the probe winner (FirstFinished when unset).
	Rule Rule
	// Sequential probes candidates one at a time instead of racing them
	// all concurrently. With large candidate sets, concurrent probes
	// contend on the client's access link and can no longer discriminate
	// paths; sequential "preliminary download tests" (the paper's
	// Section 4 wording) keep each measurement clean at the cost of a
	// longer probing phase. Sequential probing implies the MaxThroughput
	// rule, since finish order is meaningless for staggered starts.
	Sequential bool

	// Observer receives the operation's lifecycle events (probe
	// start/finish, loser cancellation, selection, remainder transfer).
	// Nil disables emission entirely; the engine then builds no event
	// values, so the unobserved hot path pays only nil checks.
	// Observation is passive — the observer sees transport timestamps but
	// never advances any clock — so the virtual-time simulator produces
	// identical results with or without one attached.
	Observer obs.Observer

	// Spans collects distributed-tracing spans. When set, each
	// SelectAndFetch operation opens a root "select" span covering the
	// whole operation and a child "race" span covering probe launch to
	// selection commit; the span context flows to the transport through
	// the operation's context, so a tracing-aware transport (realnet)
	// records its per-phase spans under the same trace. Nil — the default,
	// and always the case on the virtual-time simulator — disables tracing
	// entirely: spans carry wall-clock times and would be meaningless
	// there.
	Spans *obs.SpanCollector
}

// probeSize is the size of obj's probes: ProbeBytes, or the whole object
// when it is smaller.
func (c Config) probeSize(obj Object) int64 {
	x := c.ProbeBytes
	if x <= 0 {
		x = DefaultProbeBytes
	}
	if x > obj.Size {
		x = obj.Size
	}
	return x
}

// Outcome describes one complete select-and-fetch operation.
type Outcome struct {
	Object     Object
	Candidates []string // candidate intermediates (random set)
	Probes     []ProbeResult
	Selected   Path

	// Start is when probing began; End is when the last object byte
	// arrived over the selected path.
	Start, End float64

	// ProbeEnd is when the probing phase finished (all probes done).
	ProbeEnd float64

	// Remainder is the result of the n−x byte fetch on the selected path.
	Remainder FetchResult

	// Err is the first transfer error encountered, if any.
	Err error
}

// Duration returns the total wall (or virtual) time of the operation.
func (o Outcome) Duration() float64 { return o.End - o.Start }

// DeliveredBytes returns the payload bytes the client actually received:
// the whole object on success, and on failure the winning probe's bytes
// plus whatever the remainder delivered before dying. Failed operations
// used to be credited with the full Object.Size, inflating their
// throughput.
func (o Outcome) DeliveredBytes() int64 {
	if o.Err == nil {
		return o.Object.Size
	}
	var got int64
	for _, p := range o.Probes {
		if p.Err == nil && p.Path == o.Selected {
			got += p.DeliveredBytes()
		}
	}
	return got + o.Remainder.DeliveredBytes()
}

// Throughput returns the client-observed throughput of the operation:
// delivered bytes over the full duration including the probing phase.
// Probing overhead therefore counts against indirect routing, exactly as
// it did in the paper's deployment; failed operations count only the
// bytes that actually arrived, not the requested object size.
func (o Outcome) Throughput() float64 {
	d := o.Duration()
	if d <= 0 {
		return 0
	}
	return float64(o.DeliveredBytes()) * 8 / d
}

// SelectedIndirect reports whether an indirect path won the probe race.
func (o Outcome) SelectedIndirect() bool { return !o.Selected.IsDirect() }

// probePaths expands the candidate set into the raced path list (index 0
// is always the direct path).
func probePaths(candidates []string) []Path {
	paths := make([]Path, 0, len(candidates)+1)
	paths = append(paths, Path{Via: Direct})
	for _, c := range candidates {
		paths = append(paths, Path{Via: c})
	}
	return paths
}

// launch starts an n-byte fetch at off on every path, announcing each as
// a probe. With cancels non-nil each probe runs under its own child of
// ctx, and cancels[i] abandons probe i alone.
func launch(ctx context.Context, t Transport, o obs.Observer, obj Object, paths []Path, off, n int64, cancels []context.CancelFunc) []Handle {
	handles := make([]Handle, len(paths))
	for i, p := range paths {
		pctx := ctx
		if cancels != nil {
			pctx, cancels[i] = context.WithCancel(ctx)
		}
		emitProbeStart(o, t, obj, p, off, n)
		handles[i] = t.StartCtx(pctx, obj, p, off, n)
	}
	return handles
}

// collect reads finished probes' results, announcing each probe's end.
func collect(o obs.Observer, obj Object, handles []Handle) []ProbeResult {
	probes := make([]ProbeResult, len(handles))
	for i, h := range handles {
		probes[i] = ProbeResult{h.Result()}
		emitProbeEnd(o, obj, probes[i].FetchResult)
	}
	return probes
}

// Probe fetches the first x bytes of obj (cfg's probe size) concurrently
// over the direct path and over each candidate indirect path, returning
// the per-path results: index 0 is the direct probe, then one entry per
// candidate. Cancellation or deadline expiry of ctx fails the outstanding
// probes instead of waiting them out; cfg's observer sees a
// ProbeStarted/ProbeFinished pair per probe.
func Probe(ctx context.Context, t Transport, obj Object, candidates []string, cfg Config) []ProbeResult {
	handles := launch(ctx, t, cfg.Observer, obj, probePaths(candidates), 0, cfg.probeSize(obj), nil)
	t.Wait(handles...)
	return collect(cfg.Observer, obj, handles)
}

// awaitFirstSuccess blocks until a probe completes without error,
// returning its index and the indices of the losers, in probe order,
// for the caller to cancel and reap: the caller acts on the winner while
// they are still transferring (the paper's client "will then request the
// remaining n−x bytes through the indirect path" the moment the first
// probe completes). Probes that finished at the same instant are ranked
// by End, then by index; one that failed is nobody's loser and is
// dropped. winner is -1 if every probe failed.
func awaitFirstSuccess(t Transport, hs []Handle) (winner int, losers []int) {
	losers = make([]int, len(hs))
	for i := range hs {
		losers[i] = i
	}
	wait := make([]Handle, 0, len(hs))
	for {
		winner = -1
		for _, i := range losers {
			if h := hs[i]; h.Done() && h.Result().Err == nil &&
				(winner < 0 || h.Result().End < hs[winner].Result().End) {
				winner = i
			}
		}
		live := losers[:0]
		wait = wait[:0]
		for _, i := range losers {
			if h := hs[i]; i != winner && !(h.Done() && h.Result().Err != nil) {
				live = append(live, i)
				wait = append(wait, h)
			}
		}
		losers = live
		if winner >= 0 || len(losers) == 0 {
			return winner, losers
		}
		t.WaitAny(wait...)
	}
}

// Choose applies the selection rule to probe results, returning the
// winning path. Failed probes never win; if every probe failed, the direct
// path is returned as a fallback.
func Choose(probes []ProbeResult, rule Rule) Path {
	best := -1
	for i, p := range probes {
		if p.Err != nil {
			continue
		}
		if best < 0 {
			best = i
			continue
		}
		switch rule {
		case FirstFinished:
			if p.End < probes[best].End {
				best = i
			}
		case MaxThroughput:
			if p.Throughput() > probes[best].Throughput() {
				best = i
			}
		default:
			panic(fmt.Sprintf("core: unknown rule %d", rule))
		}
	}
	if best < 0 {
		return Path{Via: Direct}
	}
	return probes[best].Path
}

// ProbeSequential fetches the first x bytes of obj over each path one at
// a time: first the direct path, then each candidate in order. Each probe
// gets the path to itself, so measurements do not contend with each other.
// Result order matches Probe: direct first, then candidates. Once ctx
// dies the remaining probes are not issued: their results carry the typed
// cancellation error instead, so the slice still has one entry per path,
// and they emit no events.
func ProbeSequential(ctx context.Context, t Transport, obj Object, candidates []string, cfg Config) []ProbeResult {
	x := cfg.probeSize(obj)
	paths := probePaths(candidates)
	probes := make([]ProbeResult, len(paths))
	for i, p := range paths {
		if err := CtxErr(ctx); err != nil {
			now := t.Now()
			probes[i] = ProbeResult{FetchResult{Path: p, Bytes: x, Start: now, End: now, Err: err}}
			continue
		}
		h := launch(ctx, t, cfg.Observer, obj, paths[i:i+1], 0, x, nil)
		t.Wait(h...)
		probes[i] = collect(cfg.Observer, obj, h)[0]
	}
	return probes
}

// SelectAndFetch runs the paper's full client operation: probe the direct
// path and all candidates with an x-byte range request, select the winner,
// then fetch the remaining Size−x bytes over it. The returned Outcome
// carries per-phase timings for improvement accounting. It is Race and
// Fetch in sequence; a caller with business at the commit point — the
// campaigns start their control download there — calls the two itself.
//
// Cancellation or deadline expiry of ctx abandons the whole operation
// with a typed error (ErrCanceled, ErrProbeTimeout).
func SelectAndFetch(ctx context.Context, t Transport, obj Object, candidates []string, cfg Config) Outcome {
	return Race(ctx, t, obj, candidates, cfg).Fetch()
}

// Commit is a select-and-fetch operation at its commit point: the probing
// phase is over, the path is chosen and announced, and the losing probes
// have been told to stop. Fetch, which must be called, finishes it.
type Commit struct {
	ctx context.Context // the operation's context, under its select span when tracing
	t   Transport
	cfg Config
	out Outcome
	won bool // the remainder is worth requesting

	// Under early commit the probes are still the engine's to collect:
	// the losers are in flight, each under its own cancel function.
	handles []Handle
	losers  []int
	cancels []context.CancelFunc

	rec flight.Record
}

// Race runs the probing phase of SelectAndFetch and commits. Under the
// FirstFinished rule the client commits the moment the first probe
// completes — the losing probes are canceled there and then (a transport
// that tears transfers down closes their connections within a round
// trip; on the virtual-time simulator they drain, contending for
// bandwidth exactly as the paper's real probes did). Under MaxThroughput
// (and sequential probing) all probes are measured before the decision.
//
// Race is a shell around race so that it inlines: in SelectAndFetch the
// Commit then never leaves the stack.
func Race(ctx context.Context, t Transport, obj Object, candidates []string, cfg Config) *Commit {
	c := &Commit{t: t, cfg: cfg}
	c.race(ctx, obj, candidates)
	return c
}

func (c *Commit) race(ctx context.Context, obj Object, candidates []string) {
	t, cfg, o := c.t, &c.cfg, &c.out
	*o = Outcome{Object: obj, Candidates: candidates, Start: t.Now()}

	// When tracing, the operation is one record: its "select" span covers
	// the whole operation and the "race" phase covers probe launch through
	// selection commit. Probes run under the race span's context and the
	// remainder under the root's, so a tracing transport nests its
	// per-phase spans accordingly — one trace shows both candidate paths
	// racing, the loser's cancellation, and the winner's continuation.
	raceCtx := ctx
	if cfg.Spans != nil {
		parent, _ := obs.SpanFromContext(ctx)
		c.rec.Start(flight.Spec{Spans: cfg.Spans, Service: "client", Phase: "select", Parent: parent})
		c.rec.SetAttr("object", obj.Name)
		c.rec.SetAttr("server", obj.Server)
		c.rec.Phase("race")
		ctx = obs.ContextWithSpan(ctx, c.rec.Context())
		raceCtx = obs.ContextWithSpan(ctx, c.rec.PhaseContext())
	}
	c.ctx = ctx

	paths := probePaths(candidates)
	if !cfg.Sequential && cfg.Rule == FirstFinished {
		c.cancels = make([]context.CancelFunc, len(paths))
		c.handles = launch(raceCtx, t, cfg.Observer, obj, paths, 0, cfg.probeSize(obj), c.cancels)
		var win int
		win, c.losers = awaitFirstSuccess(t, c.handles)
		if c.won = win >= 0; c.won {
			o.Selected = paths[win]
		}
	} else {
		if cfg.Sequential {
			o.Probes = ProbeSequential(raceCtx, t, obj, candidates, *cfg)
			cfg.Rule = MaxThroughput
		} else {
			o.Probes = Probe(raceCtx, t, obj, candidates, *cfg)
		}
		// With every probe failed Choose falls back to the direct path,
		// and the remainder is still tried there.
		o.Selected, c.won = Choose(o.Probes, cfg.Rule), true
	}
	o.ProbeEnd = t.Now()
	emitSelection(cfg.Observer, t, obj, o.Selected, cfg.Rule.String(), len(paths), o.ProbeEnd-o.Start)
	if c.rec.Tracing() {
		// A race nobody won stays open, so Finish marks it as where the
		// operation died.
		c.rec.PhaseAttr("selected", obsID(obj, o.Selected).Label())
		c.rec.PhaseAttr("rule", cfg.Rule.String())
		if c.won {
			c.rec.Phase("")
		}
	}
	// The winner is committed, so the losing transfers are pure overhead.
	for _, i := range c.losers {
		c.cancels[i]()
		emitProbeCancel(cfg.Observer, t, obj, paths[i])
	}
}

// Fetch finishes the operation: it requests the remainder on the winning
// probe's connection (same path, same socket: warm), reaps the losing
// probes beside it — on a transport that ignored their cancellation they
// still contend for bandwidth, as the paper's real probes did — and
// returns the Outcome.
func (c *Commit) Fetch() Outcome {
	t, cfg, o, ctx := c.t, &c.cfg, &c.out, c.ctx
	obj := o.Object
	x := cfg.probeSize(obj)

	wait := make([]Handle, 0, len(c.losers)+1)
	for _, i := range c.losers {
		wait = append(wait, c.handles[i])
	}
	var rem Handle
	if rest := obj.Size - x; rest > 0 && c.won {
		emitTransferStart(cfg.Observer, t, obj, o.Selected, x, rest, true)
		rem = t.StartWarmCtx(ctx, obj, o.Selected, x, rest)
		wait = append(wait, rem)
	}
	t.Wait(wait...)
	if c.handles != nil {
		o.Probes = collect(cfg.Observer, obj, c.handles)
	}
	if rem != nil {
		o.Remainder = rem.Result()
		emitTransferEnd(cfg.Observer, obj, o.Remainder, true)
	}
	for _, cancel := range c.cancels {
		cancel()
	}

	for _, p := range o.Probes {
		if p.Err != nil && o.Err == nil {
			// A loser the engine itself canceled is bookkeeping, not a
			// path failure; it only surfaces when the caller's own ctx
			// died.
			if errors.Is(p.Err, ErrCanceled) && ctx.Err() == nil {
				continue
			}
			o.Err = p.Err
		}
	}
	if o.Remainder.Err != nil && o.Err == nil {
		o.Err = o.Remainder.Err
	}
	if o.Err == nil {
		if err := CtxErr(ctx); err != nil {
			o.Err = err
		}
	}
	if allFailed(o.Probes) && o.Err != nil && !errors.Is(o.Err, ErrAllPathsFailed) {
		o.Err = fmt.Errorf("%w: every probe failed (first: %w)", ErrAllPathsFailed, o.Err)
	}
	// The operation ends when the last object byte arrives — losing
	// probes may still be draining after that and do not count.
	switch {
	case o.Remainder.Bytes > 0:
		o.End = o.Remainder.End
	default:
		o.End = o.ProbeEnd
	}
	if c.rec.Tracing() {
		c.rec.SetAttr("selected", obsID(obj, o.Selected).Label())
		c.rec.Outcome(ErrClassOf(o.Err), errText(o.Err))
		c.rec.Finish()
	}
	return *o
}

// allFailed reports whether every probe in the race carried an error
// (the no-path-delivered outage case).
func allFailed(probes []ProbeResult) bool {
	for _, p := range probes {
		if p.Err == nil {
			return false
		}
	}
	return len(probes) > 0
}

// Improvement returns the paper's improvement metric in percent: the ratio
// of the difference between selected-path and direct-path throughput to
// direct-path throughput. Doubling throughput is +100%; halving is −50%.
func Improvement(selected, direct float64) float64 {
	if direct <= 0 {
		return 0
	}
	return (selected - direct) / direct * 100
}

// Penalty expresses a negative improvement as the paper's Table I penalty
// statistic: how many percent slower the selected path was than the direct
// path, relative to the selected path ((direct/selected − 1) × 100). It
// returns 0 when the selected path was not slower.
func Penalty(selected, direct float64) float64 {
	if selected <= 0 || direct <= selected {
		return 0
	}
	return (direct/selected - 1) * 100
}
