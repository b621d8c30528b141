// Tail-based span retention, the SpanCollector's one policy: keep the
// traces worth keeping, not the traces that arrived last. A ring that
// overwrites blindly loses, under load, exactly the interesting
// operations — the errors, the slow tail the paper's analysis is about —
// by the time anyone looks. The policy buffers each trace until its
// local root span ends, then decides: error-class roots and roots in the
// slowest decile of recent operations are always kept, everything else
// survives with probability KeepProb (1 keeps every trace: what fetch,
// origind and the tests run with). Kept traces live within a byte
// budget; when it overflows, the oldest boring (probabilistically kept)
// traces are evicted before any forced keep is. Every decision is
// counted, so the collector can report exactly how much it threw away
// and why it kept what it kept.

package obs

import (
	"math/rand"
	"sort"
)

// tailRootPhases are the phases that act as a process-local trace root
// even when they carry a cross-process parent: the relay's "forward"
// and origin's "serve" spans are children of the client's trace, but
// within their own process they are the span whose end completes the
// local view of the operation. "select" is the client-side root and
// normally also parentless.
var tailRootPhases = map[string]bool{"select": true, "forward": true, "serve": true}

// isTailRoot reports whether a span completes its trace's local view.
func isTailRoot(s Span) bool { return s.Parent.IsZero() || tailRootPhases[s.Phase] }

// TailConfig tunes tail-based retention.
type TailConfig struct {
	// ByteBudget bounds the estimated bytes of kept spans. Default 1 MiB.
	ByteBudget int
	// KeepProb is the survival probability of a boring (no error, not
	// slow) trace. Zero keeps no boring traces; there is no default —
	// the zero value is meaningful.
	KeepProb float64
	// SlowWindow is how many recent root durations feed the slow-decile
	// estimate. Default 256.
	SlowWindow int
	// MinSlowSamples is how many root durations must be on record
	// before the slow rule fires (an empty estimate would keep
	// everything). Default 20.
	MinSlowSamples int
	// MaxPending bounds how many undecided traces buffer at once;
	// overflow evicts (drops) the oldest pending trace. Default 1024.
	MaxPending int
	// Rand overrides the random source for the KeepProb draw (tests).
	Rand func() float64
}

func (cfg TailConfig) withDefaults() TailConfig {
	if cfg.ByteBudget <= 0 {
		cfg.ByteBudget = 1 << 20
	}
	if cfg.SlowWindow <= 0 {
		cfg.SlowWindow = 256
	}
	if cfg.MinSlowSamples <= 0 {
		cfg.MinSlowSamples = 20
	}
	if cfg.MaxPending <= 0 {
		cfg.MaxPending = 1024
	}
	if cfg.Rand == nil {
		cfg.Rand = rand.Float64
	}
	return cfg
}

// TailStats reports what the tail policy did, cumulatively.
type TailStats struct {
	KeptTraces    uint64 `json:"kept_traces"`
	DroppedTraces uint64 `json:"dropped_traces"`
	ForcedError   uint64 `json:"forced_error"` // kept because the root errored
	ForcedSlow    uint64 `json:"forced_slow"`  // kept because the root was slowest-decile
	RandKept      uint64 `json:"rand_kept"`    // boring but survived the KeepProb draw
	Evicted       uint64 `json:"evicted"`      // kept traces later evicted by the byte budget
	DroppedSpans  uint64 `json:"dropped_spans"`
	KeptBytes     int    `json:"kept_bytes"` // current estimated bytes of kept spans
	ByteBudget    int    `json:"byte_budget"`
	Pending       int    `json:"pending"` // traces still awaiting their root
}

// traceBuf accumulates one trace's spans (pending or kept).
type traceBuf struct {
	trace  TraceID
	spans  []Span
	bytes  int
	order  uint64 // arrival sequence of the first span
	boring bool   // kept only by the KeepProb draw, evicted first
}

// tailState is a SpanCollector's retention machinery. Guarded by the
// collector's mutex.
type tailState struct {
	cfg TailConfig

	pending    map[TraceID]*traceBuf
	pendingSeq []TraceID // arrival order, for overflow eviction

	kept     map[TraceID]*traceBuf
	keptSize int
	// Budget-eviction order is oldest-boring-first, then oldest-forced:
	// two head-indexed FIFO queues in decision order, popped lazily (an
	// ID no longer in kept is skipped), so one eviction costs O(1)
	// amortized. A single spliced slice here turns every overflow into a
	// scan over the accumulated never-evicted forced keeps — a cost that
	// grows with uptime and lands on the request path.
	keptBoring []TraceID
	boringHead int
	keptForced []TraceID
	forcedHead int

	dropped map[TraceID]struct{} // decided-drop traces, bounded FIFO
	dropSeq []TraceID

	durs  []int64 // recent root durations, ring of SlowWindow
	durAt int
	// slowThresh caches the window's p90 so the per-root decision is a
	// compare, not a sort; slowStale counts samples since the last
	// recompute (refreshed every SlowWindow/8 — a sliding decile moves
	// far slower than the request rate).
	slowThresh int64
	slowStale  int

	stats TailStats
}

// NewTailSpanCollector returns a SpanCollector retaining under cfg.
// Spans returns kept plus still-pending spans, Seen counts every span
// ever offered, Dropped counts spans the policy discarded.
func NewTailSpanCollector(cfg TailConfig) *SpanCollector {
	return &SpanCollector{tail: tailState{
		cfg:     cfg.withDefaults(),
		pending: make(map[TraceID]*traceBuf),
		kept:    make(map[TraceID]*traceBuf),
		dropped: make(map[TraceID]struct{}),
	}}
}

// NewSpanCollector is the keep-every-trace spelling of the policy:
// nothing is sampled away, and the byte budget is sized for about
// capacity spans (the default budget when capacity <= 0). Error- and
// slow-root traces are still the last the budget evicts.
func NewSpanCollector(capacity int) *SpanCollector {
	return NewTailSpanCollector(TailConfig{KeepProb: 1, ByteBudget: capacity * spanBudgetBytes})
}

// spanBudgetBytes is what NewSpanCollector budgets per span: a phase
// span with a few attributes estimates (spanBytes) at 150–400 bytes.
const spanBudgetBytes = 512

// TailStats returns the policy's cumulative counters. Nil-safe.
func (c *SpanCollector) TailStats() TailStats {
	if c == nil {
		return TailStats{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	st := c.tail.stats
	st.KeptBytes = c.tail.keptSize
	st.ByteBudget = c.tail.cfg.ByteBudget
	st.Pending = len(c.tail.pending)
	return st
}

// spanBytes estimates a span's retained footprint: the struct plus its
// string payloads. An estimate is all the budget needs — it bounds
// memory to the right order, it does not account it.
func spanBytes(s Span) int {
	n := 96 + len(s.Service) + len(s.Phase) + len(s.Class) + len(s.Err)
	for k, v := range s.Attrs {
		n += 32 + len(k) + len(v)
	}
	return n
}

// add is the collector's intake, called with c.mu held.
func (t *tailState) add(s Span, seq uint64) {
	if buf, ok := t.kept[s.Trace]; ok {
		// Late span of an already-kept trace: keep it with its family.
		buf.spans = append(buf.spans, s)
		buf.bytes += spanBytes(s)
		t.keptSize += spanBytes(s)
		t.enforceBudget()
		return
	}
	if _, ok := t.dropped[s.Trace]; ok {
		t.stats.DroppedSpans++
		return
	}
	buf, ok := t.pending[s.Trace]
	if !ok {
		if len(t.pendingSeq) >= t.cfg.MaxPending {
			t.evictOldestPending()
		}
		// A typical trace holds a handful of phase spans (forward +
		// dial/ttfb/stream); pre-sizing skips the 1→2→4 append regrowth
		// on every request.
		buf = &traceBuf{trace: s.Trace, order: seq, spans: make([]Span, 0, 4)}
		t.pending[s.Trace] = buf
		t.pendingSeq = append(t.pendingSeq, s.Trace)
	}
	buf.spans = append(buf.spans, s)
	buf.bytes += spanBytes(s)
	if isTailRoot(s) {
		t.decide(buf, s)
	}
}

// decide applies the retention policy to a trace whose local root just
// ended.
func (t *tailState) decide(buf *traceBuf, root Span) {
	delete(t.pending, buf.trace)
	t.removePendingSeq(buf.trace)

	slow := t.isSlow(root.Duration)
	t.recordDuration(root.Duration)

	errored := root.Class != "" && root.Class != ClassOK.String()
	keep, boring := false, false
	switch {
	case errored:
		keep = true
		t.stats.ForcedError++
	case slow:
		keep = true
		t.stats.ForcedSlow++
	case t.cfg.KeepProb > 0 && t.cfg.Rand() < t.cfg.KeepProb:
		keep, boring = true, true
		t.stats.RandKept++
	}
	if !keep {
		t.dropTrace(buf)
		return
	}
	buf.boring = boring
	t.kept[buf.trace] = buf
	if boring {
		t.keptBoring = append(t.keptBoring, buf.trace)
	} else {
		t.keptForced = append(t.keptForced, buf.trace)
	}
	t.keptSize += buf.bytes
	t.stats.KeptTraces++
	t.enforceBudget()
}

// dropTrace records a decided drop and remembers the trace ID so late
// spans of the same trace are dropped too (bounded memory: the oldest
// remembered drops are forgotten first).
func (t *tailState) dropTrace(buf *traceBuf) {
	t.stats.DroppedTraces++
	t.stats.DroppedSpans += uint64(len(buf.spans))
	t.dropped[buf.trace] = struct{}{}
	t.dropSeq = append(t.dropSeq, buf.trace)
	const maxRemembered = 4096
	for len(t.dropSeq) > maxRemembered {
		delete(t.dropped, t.dropSeq[0])
		t.dropSeq = t.dropSeq[1:]
	}
}

// evictOldestPending drops the longest-waiting undecided trace — the
// pending-table overflow path, which only fires when MaxPending traces
// are simultaneously missing their root (leaked spans, or a span storm).
func (t *tailState) evictOldestPending() {
	for len(t.pendingSeq) > 0 {
		id := t.pendingSeq[0]
		t.pendingSeq = t.pendingSeq[1:]
		if buf, ok := t.pending[id]; ok {
			delete(t.pending, id)
			t.dropTrace(buf)
			return
		}
	}
}

// enforceBudget evicts kept traces until the estimate fits: oldest
// boring traces first, then oldest forced keeps — under sustained
// pressure the budget wins over the policy, visibly (Evicted counts).
func (t *tailState) enforceBudget() {
	for t.keptSize > t.cfg.ByteBudget {
		buf := t.popKept(&t.keptBoring, &t.boringHead)
		if buf == nil {
			buf = t.popKept(&t.keptForced, &t.forcedHead)
		}
		if buf == nil {
			return
		}
		delete(t.kept, buf.trace)
		t.keptSize -= buf.bytes
		t.stats.Evicted++
		t.stats.DroppedSpans += uint64(len(buf.spans))
		t.dropped[buf.trace] = struct{}{}
		t.dropSeq = append(t.dropSeq, buf.trace)
	}
}

// popKept returns the oldest still-kept trace on one eviction queue
// (nil when the queue drains), compacting the consumed prefix once it
// dominates the backing array.
func (t *tailState) popKept(q *[]TraceID, head *int) *traceBuf {
	for *head < len(*q) {
		id := (*q)[*head]
		*head++
		if *head > 64 && *head*2 > len(*q) {
			*q = append((*q)[:0], (*q)[*head:]...)
			*head = 0
		}
		if buf, ok := t.kept[id]; ok {
			return buf
		}
	}
	*q, *head = (*q)[:0], 0
	return nil
}

func (t *tailState) removePendingSeq(id TraceID) {
	for i, p := range t.pendingSeq {
		if p == id {
			t.pendingSeq = append(t.pendingSeq[:i], t.pendingSeq[i+1:]...)
			return
		}
	}
}

// recordDuration feeds one root duration into the slow-decile window.
func (t *tailState) recordDuration(d int64) {
	t.slowStale++
	if len(t.durs) < t.cfg.SlowWindow {
		t.durs = append(t.durs, d)
		return
	}
	t.durs[t.durAt] = d
	t.durAt = (t.durAt + 1) % len(t.durs)
}

// isSlow reports whether d falls in the slowest decile of the recent
// root durations on record (false until MinSlowSamples are in). The
// decile threshold is cached and refreshed every SlowWindow/8 samples:
// sorting the whole window per root would put an O(n log n) pass — and
// its allocation — on every request's critical section for a quantile
// that barely moves between adjacent samples.
func (t *tailState) isSlow(d int64) bool {
	if len(t.durs) < t.cfg.MinSlowSamples {
		return false
	}
	refreshEvery := t.cfg.SlowWindow / 8
	if refreshEvery < 1 {
		refreshEvery = 1
	}
	if t.slowStale >= refreshEvery || t.slowThresh == 0 {
		sorted := make([]int64, len(t.durs))
		copy(sorted, t.durs)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		t.slowThresh = sorted[(len(sorted)*9)/10]
		t.slowStale = 0
	}
	return d >= t.slowThresh
}

// spans returns kept-then-pending spans, each group ordered by the
// trace's arrival sequence. Called with c.mu held; this is the cold
// read path (debug pages, shutdown archives), so sorting here keeps the
// per-request write path free of ordering work.
func (t *tailState) spans() []Span {
	keptBufs := make([]*traceBuf, 0, len(t.kept))
	for _, buf := range t.kept {
		keptBufs = append(keptBufs, buf)
	}
	sort.Slice(keptBufs, func(i, j int) bool { return keptBufs[i].order < keptBufs[j].order })
	var out []Span
	for _, buf := range keptBufs {
		out = append(out, buf.spans...)
	}
	for _, id := range t.pendingSeq {
		if buf, ok := t.pending[id]; ok {
			out = append(out, buf.spans...)
		}
	}
	return out
}
