package flight

import (
	"encoding/hex"
	"maps"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Spec is what is fixed when a record opens: the sinks it feeds, each
// optional, and the transfer's identity. A client transfer has Flight; a
// relay forward or an origin serve Flight, Latency and Health.
type Spec struct {
	// Flight is the store the record's row finishes into; a tracing
	// store also makes the record collect spans.
	Flight  *Recorder
	Latency *obs.LatencyRecorder
	Health  *obs.HealthMonitor

	// Service and Phase name the parent span: client/transfer,
	// relay/forward, origin/serve.
	Service, Phase string
	// Path and Object are the wide event's identity; Path matches the
	// health monitor's fold key (see Event.Path).
	Path, Object string
	// Warm marks a continuation on a pooled connection.
	Warm bool
	// Parent is the trace context the transfer arrived with: the engine's
	// span on the client, the x-trace header on relay and origin. Zero
	// roots a fresh trace when spans are collected.
	Parent obs.SpanContext
}

// clock is time.Now, replaced by the record's own tests so a scripted
// transfer has exact phase boundaries.
var clock = time.Now

// Record is the one per-transfer record: the transfer path marks phases,
// bytes, cache disposition, retries and the outcome on it, and a single
// Finish derives everything the sinks keep — the store's row (the wide
// event, and when tracing its span with one child per phase; the
// /debug/active row while the transfer runs), the exemplar-bearing
// latency observation, and the health fold.
//
// A Record is a value: on the handler's stack in relay and origin,
// inside the transfer handle on the client. What the store needs —
// phase list, attributes, the live row — sits behind one pointer that
// Start leaves nil unless a store is attached, so with nothing attached
// every site is a nil check and nothing is allocated. One goroutine owns
// a record from Start to Finish; Bytes may be called from any.
type Record struct {
	spec   Spec
	begin  time.Time
	trace  obs.TraceID // the parent's, or the record's own when it roots one
	bytes  atomic.Int64
	key    string // health fold key, when fold is set
	fold   bool
	class  obs.ErrClass
	detail string
	tries  int
	open   bool
	t      *trail
}

// trail is the part of a record the store needs: heap-allocated,
// because the recorder's active table points at it while the transfer
// runs. The owner goroutine writes it; mu covers the two fields the
// active table's snapshot reads besides.
type trail struct {
	id    uint64
	spec  Spec
	trace obs.TraceID
	self  obs.SpanContext // the record's span; zero unless spans are collected
	begin time.Time
	bytes atomic.Int64

	phaseAt time.Time // when the open phase was (re-)entered; zero between phases
	phases  []phase
	attrs   map[string]string
	cache   string

	mu      sync.Mutex
	phase   string
	retries int
}

// phase is one named slice of the record's lifetime. A phase revisited
// right after itself (a retried dial) accumulates into the same entry.
type phase struct {
	name  string
	id    obs.SpanID // minted when the phase opens, if spans are collected
	start time.Time
	dur   time.Duration
	attrs map[string]string
	sub   []phase
}

// Start opens the record. With no sink attached it stays closed and
// every later call, Finish included, does nothing.
func (r *Record) Start(s Spec) {
	if s.Flight == nil && s.Latency == nil && s.Health == nil {
		return
	}
	r.open = true
	r.spec = s
	r.begin = clock()
	r.trace = s.Parent.Trace
	if s.Flight == nil {
		return
	}
	t := &trail{spec: s, begin: r.begin}
	if s.Flight.trace {
		if r.trace.IsZero() {
			r.trace = obs.NewTraceID()
		}
		t.self = obs.SpanContext{Trace: r.trace, Span: obs.NewSpanID()}
	}
	t.trace = r.trace
	r.t = t
	s.Flight.begin(t)
}

// Tracing reports whether spans are being collected, for sites that
// would otherwise format an attribute or read a clock for nothing.
func (r *Record) Tracing() bool { return r.t != nil && r.t.self.Valid() }

// Context returns the record's own span context — what goes on the wire
// in x-trace so the next hop nests under this one. Zero when spans are
// not collected.
func (r *Record) Context() obs.SpanContext {
	if r.t == nil {
		return obs.SpanContext{}
	}
	return r.t.self
}

// Phase marks a phase transition, closing the previous phase. An empty
// name closes it without opening another: what runs until the next mark
// belongs to the parent span alone.
func (r *Record) Phase(name string) {
	t := r.t
	if t == nil {
		return
	}
	now := clock()
	t.closePhase(now)
	if name != "" {
		if n := len(t.phases); n == 0 || t.phases[n-1].name != name {
			p := phase{name: name, start: now}
			if t.self.Valid() {
				p.id = obs.NewSpanID()
			}
			t.phases = append(t.phases, p)
		}
		t.phaseAt = now
	}
	t.mu.Lock()
	t.phase = name
	t.mu.Unlock()
}

// PhaseContext returns the open phase's span context, for work started
// beneath that phase rather than beneath the record: the phase's span ID
// is minted when it opens, so children can name it before Finish writes
// it. Zero when spans are not collected or no phase is open.
func (r *Record) PhaseContext() obs.SpanContext {
	if !r.Tracing() || r.t.phaseAt.IsZero() {
		return obs.SpanContext{}
	}
	return obs.SpanContext{Trace: r.t.trace, Span: r.t.phases[len(r.t.phases)-1].id}
}

// closePhase folds the time since the last mark into the open phase,
// and reports whether there was one.
func (t *trail) closePhase(now time.Time) bool {
	if t.phaseAt.IsZero() {
		return false
	}
	t.phases[len(t.phases)-1].dur += now.Sub(t.phaseAt)
	t.phaseAt = time.Time{}
	return true
}

// SetAttr attaches a dimension to the parent span.
func (r *Record) SetAttr(k, v string) {
	if r.Tracing() {
		setAttr(&r.t.attrs, k, v)
	}
}

// PhaseAttr attaches a dimension to the current phase's span.
func (r *Record) PhaseAttr(k, v string) {
	if r.Tracing() && len(r.t.phases) > 0 {
		setAttr(&r.t.phases[len(r.t.phases)-1].attrs, k, v)
	}
}

func setAttr(m *map[string]string, k, v string) {
	if *m == nil {
		*m = make(map[string]string, 4)
	}
	(*m)[k] = v
}

// Overlap records work that ran interleaved with the current phase as a
// span nested under it, from start until now — the streaming verifier,
// whose cost is only known once the stream ends.
func (r *Record) Overlap(name string, start time.Time, attrs map[string]string) {
	if r.Tracing() && len(r.t.phases) > 0 {
		p := &r.t.phases[len(r.t.phases)-1]
		p.sub = append(p.sub, phase{
			name: name, id: obs.NewSpanID(),
			start: start, dur: clock().Sub(start), attrs: attrs,
		})
	}
}

// StoreBytes sets the payload bytes delivered so far.
func (r *Record) StoreBytes(n int64) {
	r.bytes.Store(n)
	if r.t != nil {
		r.t.bytes.Store(n)
	}
}

// AddBytes adds to the payload bytes delivered so far (negative to take
// back what a short write did not deliver).
func (r *Record) AddBytes(n int64) { r.StoreBytes(r.bytes.Load() + n) }

// Bytes returns the payload bytes delivered so far.
func (r *Record) Bytes() int64 { return r.bytes.Load() }

// SetCache records the cache disposition ("hit", "shared", "miss").
func (r *Record) SetCache(state string) {
	if r.t != nil {
		r.t.cache = state
	}
}

// FoldKey names what the outcome says something about — the upstream
// address on the relay, the object on the origin — and so what the
// health monitor folds it under. A record that never sets it (a
// malformed request, a cache hit) folds nowhere.
func (r *Record) FoldKey(key string) { r.key, r.fold = key, true }

// Retry counts one cold re-attempt.
func (r *Record) Retry() {
	if !r.open {
		return
	}
	r.tries++
	if t := r.t; t != nil {
		t.mu.Lock()
		t.retries = r.tries
		t.mu.Unlock()
	}
}

// Outcome sets how the transfer ended; a record nobody calls it on
// finishes ok.
func (r *Record) Outcome(class obs.ErrClass, detail string) { r.class, r.detail = class, detail }

// Finish closes the record and feeds every sink from it: the store's
// row first, so a bundle the health fold triggers already holds it,
// then latency, then health. Only the first Finish takes effect.
func (r *Record) Finish() {
	if !r.open {
		return
	}
	r.open = false
	now := clock()
	elapsed := now.Sub(r.begin)
	if r.t != nil {
		r.t.finish(now, elapsed, r.class, r.detail, r.tries)
	}
	if l := r.spec.Latency; l != nil {
		l.ObserveTrace(elapsed, r.trace)
	}
	if h := r.spec.Health; h != nil && r.fold {
		h.Observe(r.key, r.class, elapsed.Seconds(), r.bytes.Load())
	}
}

// died reports whether class means the transfer broke off inside a
// phase. A status outcome does not: the server answered, every phase
// ran to its end.
func died(class obs.ErrClass) bool { return class != obs.ClassOK && class != obs.ClassStatus }

func (t *trail) finish(now time.Time, elapsed time.Duration, class obs.ErrClass, detail string, retries int) {
	inPhase := t.closePhase(now)
	tracing := t.self.Valid()
	ev := Event{
		Seq: t.id, Wall: now.UnixNano(),
		Service: t.spec.Service, Op: t.spec.Phase, Path: t.spec.Path, Object: t.spec.Object,
		Trace: traceHex(t.trace), Class: class.String(), Err: detail,
		Duration: elapsed.Seconds(), Bytes: t.bytes.Load(),
		Cache: t.cache, Retries: retries, Warm: t.spec.Warm,
	}
	ev.Phases = make([]Phase, len(t.phases))
	for i := range t.phases {
		ev.Phases[i] = t.phases[i].row(t.begin, tracing)
	}
	if inPhase && died(class) {
		ev.Phases[len(ev.Phases)-1].Died = true
	}
	if tracing {
		ev.Span, ev.Start, ev.Attrs = t.self.Span.String(), t.begin.UnixNano(), t.attrs
		if p := t.spec.Parent.Span; !p.IsZero() {
			ev.Parent = p.String()
		}
	}
	t.spec.Flight.finish(t.id, ev, int64(elapsed))
}

// row is the phase's part of the event; tracing, its span too, the start
// an offset from the record's begin.
func (p *phase) row(begin time.Time, tracing bool) Phase {
	out := Phase{Name: p.name, Secs: p.dur.Seconds()}
	if tracing {
		out.Span, out.Off, out.Attrs = p.id.String(), p.start.UnixNano()-begin.UnixNano(), p.attrs
		for i := range p.sub {
			out.Sub = append(out.Sub, p.sub[i].row(begin, true))
		}
	}
	return out
}

// spans appends the spans a traced row stands for, children before their
// parent: each phase after the work that overlapped it, then the row's
// own span.
func (ev *Event) spans(out []obs.Span) []obs.Span {
	var trace obs.TraceID
	hex.Decode(trace[:], []byte(ev.Trace))
	self := spanID(ev.Span)
	span := func(p *Phase, parent obs.SpanID) obs.Span {
		return obs.Span{
			Trace: trace, ID: spanID(p.Span), Parent: parent,
			Service: ev.Service, Phase: p.Name,
			Start: ev.Start + p.Off, Duration: nanos(p.Secs),
			Class: obs.ClassOK.String(), Attrs: p.Attrs,
		}
	}
	for i := range ev.Phases {
		p := &ev.Phases[i]
		s := span(p, self)
		for j := range p.Sub {
			out = append(out, span(&p.Sub[j], s.ID))
		}
		if p.Died {
			s.Class, s.Err = ev.Class, ev.Err
		}
		out = append(out, s)
	}
	attrs := ev.Attrs
	if ev.Warm || ev.Cache != "" {
		attrs = maps.Clone(attrs)
		if ev.Warm {
			setAttr(&attrs, "warm", "true")
		}
		if ev.Cache != "" {
			setAttr(&attrs, "cache", ev.Cache)
		}
	}
	return append(out, obs.Span{
		Trace: trace, ID: self, Parent: spanID(ev.Parent),
		Service: ev.Service, Phase: ev.Op,
		Start: ev.Start, Duration: nanos(ev.Duration),
		Class: ev.Class, Err: ev.Err, Attrs: attrs,
	})
}

// spanID decodes a row's hex span ID; "" (no parent) is the zero ID.
func spanID(h string) (id obs.SpanID) {
	hex.Decode(id[:], []byte(h))
	return id
}

// nanos turns a row's seconds back into the nanoseconds they were
// measured in.
func nanos(secs float64) int64 { return int64(math.Round(secs * 1e9)) }

func traceHex(id obs.TraceID) string {
	if id.IsZero() {
		return ""
	}
	return id.String()
}

// snapshot is the trail's /debug/active row.
func (t *trail) snapshot(now time.Time) ActiveTransfer {
	t.mu.Lock()
	defer t.mu.Unlock()
	return ActiveTransfer{
		ID: t.id, Service: t.spec.Service, Path: t.spec.Path, Object: t.spec.Object,
		Trace: traceHex(t.trace), Phase: t.phase, Bytes: t.bytes.Load(),
		AgeSecs: now.Sub(t.begin).Seconds(),
		Retries: t.retries, Warm: t.spec.Warm,
	}
}
