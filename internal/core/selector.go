package core

import (
	"context"
	"errors"
	"fmt"
	"sort"

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

func (c Config) probeBytes() int64 {
	if c.ProbeBytes > 0 {
		return c.ProbeBytes
	}
	return DefaultProbeBytes
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

// StartProbes launches an x-byte probe on the direct path and on every
// candidate indirect path concurrently, returning the paths (index 0 is
// direct) and their in-flight handles.
func StartProbes(t Transport, obj Object, x int64, candidates []string) ([]Path, []Handle) {
	paths, handles, _ := StartProbesCtx(context.Background(), t, obj, candidates, Config{ProbeBytes: x})
	return paths, handles
}

// StartProbesCtx is StartProbes with per-probe cancellation: every probe
// runs under its own child context of ctx, and the returned cancel
// functions (one per handle) let the caller abandon individual probes —
// the engine cancels the losers the moment a winner commits. On
// transports without the ContextStarter extension the cancel functions
// are inert and probes drain to completion. The probe size and observer
// come from cfg; a ProbeStarted event is emitted per launched probe.
func StartProbesCtx(ctx context.Context, t Transport, obj Object, candidates []string, cfg Config) ([]Path, []Handle, []context.CancelFunc) {
	x := cfg.probeBytes()
	if x > obj.Size {
		x = obj.Size
	}
	paths := probePaths(candidates)
	handles := make([]Handle, len(paths))
	cancels := make([]context.CancelFunc, len(paths))
	for i, p := range paths {
		pctx, cancel := context.WithCancel(ctx)
		emitProbeStart(cfg.Observer, t, obj, p, 0, x)
		handles[i] = startCtx(pctx, t, obj, p, 0, x)
		cancels[i] = cancel
	}
	return paths, handles, cancels
}

// Probe fetches the first x bytes of obj concurrently over the direct path
// and over each candidate indirect path, returning the per-path results.
// Order: index 0 is the direct probe, then one entry per candidate.
func Probe(t Transport, obj Object, x int64, candidates []string) []ProbeResult {
	return ProbeCtx(context.Background(), t, obj, candidates, Config{ProbeBytes: x})
}

// ProbeCtx is Probe under a context: cancellation or deadline expiry
// fails the outstanding probes (on context-aware transports) instead of
// waiting them out. The probe size and observer come from cfg; each probe
// emits a ProbeStarted/ProbeFinished pair.
func ProbeCtx(ctx context.Context, t Transport, obj Object, candidates []string, cfg Config) []ProbeResult {
	paths := probePaths(candidates)
	x := cfg.probeBytes()
	if x > obj.Size {
		x = obj.Size
	}
	handles := make([]Handle, len(paths))
	for i, p := range paths {
		emitProbeStart(cfg.Observer, t, obj, p, 0, x)
		handles[i] = startCtx(ctx, t, obj, p, 0, x)
	}
	t.Wait(handles...)
	probes := make([]ProbeResult, len(handles))
	for i, h := range handles {
		probes[i] = ProbeResult{h.Result()}
		emitProbeEnd(cfg.Observer, obj, probes[i].FetchResult)
	}
	return probes
}

// AwaitFirstSuccess blocks until a handle completes without error,
// returning its index and the indices still outstanding. It returns
// winner = -1 if every handle completed with an error. Transports
// implementing AnyWaiter make this an early commit: the caller can act on
// the winner while the losers are still transferring.
func AwaitFirstSuccess(t Transport, hs []Handle) (winner int, pending []int) {
	outstanding := make(map[int]Handle, len(hs))
	for i, h := range hs {
		outstanding[i] = h
	}
	aw, hasAny := t.(AnyWaiter)
	for len(outstanding) > 0 {
		// Collect already-done handles first (validation failures are
		// born done).
		doneIdx := -1
		for i, h := range outstanding {
			if h.Done() {
				doneIdx = i
				break
			}
		}
		if doneIdx < 0 {
			if hasAny {
				rest := make([]Handle, 0, len(outstanding))
				idxs := make([]int, 0, len(outstanding))
				for i, h := range outstanding {
					rest = append(rest, h)
					idxs = append(idxs, i)
				}
				doneIdx = idxs[aw.WaitAny(rest...)]
			} else {
				// Fallback: wait everything out; the earliest successful
				// End is the de-facto winner.
				all := make([]Handle, 0, len(outstanding))
				for _, h := range outstanding {
					all = append(all, h)
				}
				t.Wait(all...)
				continue
			}
		}
		h := outstanding[doneIdx]
		delete(outstanding, doneIdx)
		if h.Result().Err == nil {
			best := doneIdx
			// Another handle may have finished at the same instant (or,
			// on the wait-all fallback, all of them have); prefer the
			// earliest successful End.
			for i, o := range outstanding {
				if o.Done() && o.Result().Err == nil && o.Result().End < h.Result().End {
					best = i
				}
			}
			if best != doneIdx {
				outstanding[doneIdx] = h
				h = outstanding[best]
				delete(outstanding, best)
				doneIdx = best
			}
			for i := range outstanding {
				pending = append(pending, i)
			}
			// Map iteration order is random; losers must be reaped (and
			// their cancellations observed) in probe order.
			sort.Ints(pending)
			return doneIdx, pending
		}
	}
	return -1, nil
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
// Result order matches Probe: direct first, then candidates.
func ProbeSequential(t Transport, obj Object, x int64, candidates []string) []ProbeResult {
	return ProbeSequentialCtx(context.Background(), t, obj, candidates, Config{ProbeBytes: x})
}

// ProbeSequentialCtx is ProbeSequential under a context. Once ctx dies,
// the remaining probes are not issued: their results carry the typed
// cancellation error instead, so the slice still has one entry per path.
// Probes that were never issued emit no events.
func ProbeSequentialCtx(ctx context.Context, t Transport, obj Object, candidates []string, cfg Config) []ProbeResult {
	x := cfg.probeBytes()
	if x > obj.Size {
		x = obj.Size
	}
	paths := probePaths(candidates)
	probes := make([]ProbeResult, len(paths))
	for i, p := range paths {
		if err := CtxErr(ctx); err != nil {
			now := t.Now()
			probes[i] = ProbeResult{FetchResult{Path: p, Bytes: x, Start: now, End: now, Err: err}}
			continue
		}
		emitProbeStart(cfg.Observer, t, obj, p, 0, x)
		h := startCtx(ctx, t, obj, p, 0, x)
		t.Wait(h)
		probes[i] = ProbeResult{h.Result()}
		emitProbeEnd(cfg.Observer, obj, probes[i].FetchResult)
	}
	return probes
}

// SelectAndFetch runs the paper's full client operation: probe the direct
// path and all candidates with an x-byte range request, select the winner,
// then fetch the remaining Size−x bytes over it. The returned Outcome
// carries per-phase timings for improvement accounting.
//
// Under the FirstFinished rule the client commits the moment the first
// probe completes — the remainder starts (warm, on the winner's
// connection) while the losing probes are still draining, exactly as the
// paper's client behaves. Under MaxThroughput (and sequential probing)
// all probes are measured before the decision.
func SelectAndFetch(t Transport, obj Object, candidates []string, cfg Config) Outcome {
	return SelectAndFetchCtx(context.Background(), t, obj, candidates, cfg)
}

// SelectAndFetchCtx is SelectAndFetch under a context. On context-aware
// transports the losing probes are canceled the moment the winner
// commits (their connections close within a round trip instead of
// draining), and cancellation or deadline expiry of ctx itself abandons
// the whole operation with a typed error (ErrCanceled, ErrProbeTimeout).
// On transports without the extension — notably the virtual-time
// simulator — losers drain to completion, contending for bandwidth
// exactly as the paper's real probes did.
func SelectAndFetchCtx(ctx context.Context, t Transport, obj Object, candidates []string, cfg Config) Outcome {
	x := cfg.probeBytes()
	if x > obj.Size {
		x = obj.Size
	}
	o := Outcome{Object: obj, Candidates: candidates, Start: t.Now()}
	rest := obj.Size - x

	// When tracing, the operation is one record: its "select" span covers
	// the whole operation and the "race" phase covers probe launch through
	// selection commit. Probes run under the race span's context and the
	// remainder under the root's, so a tracing transport nests its
	// per-phase spans accordingly — one trace shows both candidate paths
	// racing, the loser's cancellation, and the winner's continuation.
	var rec flight.Record
	raceCtx := ctx
	if cfg.Spans != nil {
		parent, _ := obs.SpanFromContext(ctx)
		rec.Start(flight.Spec{Spans: cfg.Spans, Service: "client", Phase: "select", Parent: parent})
		rec.SetAttr("object", obj.Name)
		rec.SetAttr("server", obj.Server)
		rec.Phase("race")
		ctx = obs.ContextWithSpan(ctx, rec.Context())
		raceCtx = obs.ContextWithSpan(ctx, rec.PhaseContext())
	}

	if !cfg.Sequential && cfg.Rule == FirstFinished {
		paths, handles, cancels := StartProbesCtx(raceCtx, t, obj, candidates, cfg)
		defer func() {
			for _, c := range cancels {
				c()
			}
		}()
		win, pending := AwaitFirstSuccess(t, handles)
		o.ProbeEnd = t.Now()
		if win >= 0 {
			o.Selected = paths[win]
		} else {
			o.Selected = Path{Via: Direct} // every probe failed
		}
		emitSelection(cfg.Observer, t, obj, o.Selected, cfg.Rule.String(), len(paths), o.ProbeEnd-o.Start)
		if rec.Tracing() {
			commitRace(&rec, obsID(obj, o.Selected).Label(), cfg.Rule.String(), win >= 0)
		}

		// Cancel the losers immediately: the winner is committed, so the
		// losing transfers are pure overhead. Context-aware transports
		// tear them down within a round trip; others drain them below.
		for _, i := range pending {
			cancels[i]()
			emitProbeCancel(cfg.Observer, t, obj, paths[i])
		}

		var rem Handle
		if rest > 0 && win >= 0 {
			emitTransferStart(cfg.Observer, t, obj, o.Selected, x, rest, true)
			rem = startOnCtx(ctx, t, true, obj, o.Selected, x, rest)
		}
		// Reap the losers alongside the remainder. On transports that
		// ignored the cancellation they still contend for bandwidth, as
		// the paper's real probes did.
		wait := make([]Handle, 0, len(pending)+1)
		for _, i := range pending {
			wait = append(wait, handles[i])
		}
		if rem != nil {
			wait = append(wait, rem)
		}
		if len(wait) > 0 {
			t.Wait(wait...)
		}
		o.Probes = make([]ProbeResult, len(handles))
		for i, h := range handles {
			o.Probes[i] = ProbeResult{h.Result()}
			emitProbeEnd(cfg.Observer, obj, o.Probes[i].FetchResult)
		}
		if rem != nil {
			o.Remainder = rem.Result()
			emitTransferEnd(cfg.Observer, obj, o.Remainder, true)
		}
	} else {
		if cfg.Sequential {
			o.Probes = ProbeSequentialCtx(raceCtx, t, obj, candidates, cfg)
			cfg.Rule = MaxThroughput
		} else {
			o.Probes = ProbeCtx(raceCtx, t, obj, candidates, cfg)
		}
		o.ProbeEnd = t.Now()
		o.Selected = Choose(o.Probes, cfg.Rule)
		emitSelection(cfg.Observer, t, obj, o.Selected, cfg.Rule.String(), len(o.Probes), o.ProbeEnd-o.Start)
		if rec.Tracing() {
			commitRace(&rec, obsID(obj, o.Selected).Label(), cfg.Rule.String(), true)
		}
		if rest > 0 {
			// The remainder continues on the winning probe's connection
			// (same path, same socket): warm when the transport supports
			// it.
			emitTransferStart(cfg.Observer, t, obj, o.Selected, x, rest, true)
			h := startOnCtx(ctx, t, true, obj, o.Selected, x, rest)
			t.Wait(h)
			o.Remainder = h.Result()
			emitTransferEnd(cfg.Observer, obj, o.Remainder, true)
		}
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
	if rec.Tracing() {
		rec.SetAttr("selected", obsID(obj, o.Selected).Label())
		rec.Outcome(ErrClassOf(o.Err), errText(o.Err))
		rec.Finish()
	}
	return o
}

// commitRace closes the race phase at the selection. A race nobody won
// stays open, so Finish marks it as where the operation died.
func commitRace(rec *flight.Record, selected, rule string, won bool) {
	rec.PhaseAttr("selected", selected)
	rec.PhaseAttr("rule", rule)
	if won {
		rec.Phase("")
	}
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
