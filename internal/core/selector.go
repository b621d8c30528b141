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
// Sequential is the paper's Section 4 variant, its per-candidate
// "preliminary download tests": the paths are probed one at a time,
// direct first, so each measurement has the client's access link to
// itself (with many candidates, concurrent probes contend there and stop
// discriminating paths) at the cost of a longer probing phase. It
// chooses by throughput, since finish order means nothing for staggered
// starts.
const (
	FirstFinished Rule = iota
	MaxThroughput
	Sequential
)

func (r Rule) String() string {
	switch r {
	case FirstFinished:
		return "first-finished"
	case MaxThroughput:
		return "max-throughput"
	case Sequential:
		return "sequential"
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

	// Metrics folds the record of each finished operation (obs.Op): the
	// probes and the remainder it issued, and the route it committed to.
	// Nil records nothing. Recording is passive — the record carries
	// transport timestamps and advances no clock — so the virtual-time
	// simulator produces identical results with or without one attached.
	Metrics *obs.Metrics

	// Flight, when set, is the store each SelectAndFetch operation's
	// record finishes into; a tracing store makes it a root "select" span
	// with a "race" child from probe launch to selection commit, whose
	// context reaches the transport through the operation's context so a
	// tracing-aware transport (realnet) records beneath it. Nil — the
	// default, and always the case on the virtual-time simulator, where
	// wall-clock spans would be meaningless — records nothing.
	Flight *flight.Recorder
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

// launch starts an n-byte fetch at off on every path. With cancels
// non-nil each probe runs under its own child of ctx, and cancels[i]
// abandons probe i alone.
func launch(ctx context.Context, t Transport, obj Object, paths []Path, off, n int64, cancels []context.CancelFunc) []Handle {
	handles := make([]Handle, len(paths))
	for i, p := range paths {
		pctx := ctx
		if cancels != nil {
			pctx, cancels[i] = context.WithCancel(ctx)
		}
		handles[i] = t.StartCtx(pctx, obj, p, off, n)
	}
	return handles
}

// collect reads finished probes' results.
func collect(handles []Handle) []ProbeResult {
	probes := make([]ProbeResult, len(handles))
	for i, h := range handles {
		probes[i] = ProbeResult{h.Result()}
	}
	return probes
}

// fetchAll fetches [off, off+n) of obj on each path and waits every
// fetch out: concurrently, or with seq one at a time in path order. A
// sequential fetch issues nothing more once ctx dies; each path it did
// not reach gets an entry carrying the typed error, starting and ending
// at that moment. issued counts the fetches that went out, which are
// the first entries.
func fetchAll(ctx context.Context, t Transport, obj Object, paths []Path, off, n int64, seq bool) (res []ProbeResult, issued int) {
	if !seq {
		handles := launch(ctx, t, obj, paths, off, n, nil)
		t.Wait(handles...)
		return collect(handles), len(paths)
	}
	res = make([]ProbeResult, len(paths))
	for i, p := range paths {
		if err := CtxErr(ctx); err != nil {
			now := t.Now()
			res[i] = ProbeResult{FetchResult{Path: p, Offset: off, Bytes: n, Start: now, End: now, Err: err}}
			continue
		}
		h := t.StartCtx(ctx, obj, p, off, n)
		t.Wait(h)
		res[i] = ProbeResult{h.Result()}
		issued++
	}
	return res, issued
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

// choose applies rule to finished probes, returning the winning path:
// the earliest to finish under FirstFinished, the fastest under
// MaxThroughput and Sequential. Failed probes never win; if every probe
// failed, the direct path is returned as a fallback.
func choose(probes []ProbeResult, rule Rule) Path {
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
		case MaxThroughput, Sequential:
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
// phase is over, the path is chosen, and the losing probes have been told
// to stop. Fetch, which must be called, finishes it.
type Commit struct {
	ctx context.Context // the operation's context, under its select span when tracing
	t   Transport
	cfg Config
	out Outcome
	won bool // the remainder is worth requesting

	// issued counts the probes that went out (all of them, unless a
	// Sequential race outlived its ctx), and rem is whether the remainder
	// did: what the operation's record holds.
	issued int
	rem    bool

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
// and Sequential every probe is measured before the decision.
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

	// With a store, the operation is one record: its "select" span covers
	// the whole operation and the "race" phase covers probe launch through
	// selection commit. Probes run under the race span's context and the
	// remainder under the root's, so a tracing transport nests its
	// per-phase spans accordingly — one trace shows both candidate paths
	// racing, the loser's cancellation, and the winner's continuation.
	raceCtx := ctx
	if cfg.Flight != nil {
		parent, _ := obs.SpanFromContext(ctx)
		c.rec.Start(flight.Spec{Flight: cfg.Flight, Service: "client", Phase: "select", Parent: parent})
		c.rec.SetAttr("object", obj.Name)
		c.rec.SetAttr("server", obj.Server)
		c.rec.Phase("race")
		ctx = obs.ContextWithSpan(ctx, c.rec.Context())
		raceCtx = obs.ContextWithSpan(ctx, c.rec.PhaseContext())
	}
	c.ctx = ctx

	paths := probePaths(candidates)
	if cfg.Rule == FirstFinished {
		c.cancels = make([]context.CancelFunc, len(paths))
		c.handles = launch(raceCtx, t, obj, paths, 0, cfg.probeSize(obj), c.cancels)
		c.issued = len(paths)
		var win int
		win, c.losers = awaitFirstSuccess(t, c.handles)
		if c.won = win >= 0; c.won {
			o.Selected = paths[win]
		}
	} else {
		o.Probes, c.issued = fetchAll(raceCtx, t, obj, paths, 0, cfg.probeSize(obj), cfg.Rule == Sequential)
		// With every probe failed choose falls back to the direct path,
		// and the remainder is still tried there.
		o.Selected, c.won = choose(o.Probes, cfg.Rule), true
	}
	o.ProbeEnd = t.Now()
	if cfg.Flight != nil {
		// A race nobody won stays open, so Finish marks it as where the
		// operation died.
		c.rec.PhaseAttr("selected", o.Selected.label())
		c.rec.PhaseAttr("rule", cfg.Rule.String())
		if c.won {
			c.rec.Phase("")
		}
	}
	// The winner is committed, so the losing transfers are pure overhead.
	for _, i := range c.losers {
		c.cancels[i]()
	}
}

// Fetch finishes the operation: it requests the remainder on the winning
// probe's connection (same path, same socket: warm), reaps the losing
// probes beside it — on a transport that ignored their cancellation they
// still contend for bandwidth, as the paper's real probes did — and
// returns the Outcome. When the operation's ctx died during the race —
// a stalled probe waited out under MaxThroughput — no remainder is
// requested: Outcome.Remainder carries the typed error, starting and
// ending at that moment, as a Sequential race's un-issued probes do.
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
		if err := CtxErr(ctx); err != nil {
			now := t.Now()
			o.Remainder = FetchResult{Path: o.Selected, Offset: x, Bytes: rest, Start: now, End: now, Err: err}
		} else {
			rem = t.StartWarmCtx(ctx, obj, o.Selected, x, rest)
			wait = append(wait, rem)
			c.rem = true
		}
	}
	t.Wait(wait...)
	if c.handles != nil {
		o.Probes = collect(c.handles)
	}
	if rem != nil {
		o.Remainder = rem.Result()
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
	if cfg.Flight != nil {
		c.rec.SetAttr("selected", o.Selected.label())
		c.rec.Outcome(ErrClassOf(o.Err), errText(o.Err))
		c.rec.Finish()
	}
	if m := cfg.Metrics; m != nil {
		var buf [8]obs.Leg
		op := c.record(buf[:0])
		m.Fold(&op)
	}
	return *o
}

// record describes the finished operation (see record): its issued
// probes, the losers among them reaped, and the remainder if it went out.
func (c *Commit) record(legs []obs.Leg) obs.Op {
	o := &c.out
	if c.rem {
		return record(legs, &o.Selected, o.Probes[:c.issued], c.losers, o.Remainder)
	}
	return record(legs, &o.Selected, o.Probes[:c.issued], c.losers)
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
