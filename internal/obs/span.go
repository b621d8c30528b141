// Distributed tracing: the cross-hop span model that turns the client,
// relay, and origin into one observable system.
//
// The paper's analysis attributes indirect-path wins and penalties to
// where time is spent — connection setup, first byte, steady-state
// streaming — on each hop of client→relay→origin. A Span is one timed
// phase of one request on one service; spans share a TraceID minted at
// the root of a selection operation and propagated across process
// boundaries in the x-trace request header, so the spans recorded by
// three independent processes stitch into a single parent-child timeline
// per operation.
//
// Spans are produced in one place, flight.Record's Finish, and retained
// under one policy (tailspan.go). Tracing is strictly opt-in: with a nil
// *SpanCollector a record stays closed, so the unobserved hot path
// pays only pointer comparisons. Unlike selection events — which carry
// transport-relative timestamps so the virtual-time simulator stays
// passive — spans carry wall-clock times, because their whole point is
// aligning records from processes that share no transport clock. Only
// the real stack records them.

package obs

import (
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"math/rand/v2"
	"sync"
)

// TraceHeader is the request-header key that propagates the trace across
// hops: the client stamps it on probe and fetch requests, the relay
// continues it on the forwarded origin request. Lower-case to match the
// httpx codec's canonicalized header maps.
const TraceHeader = "x-trace"

// TraceID identifies one end-to-end operation across every process it
// touches. 128 bits, rendered as 32 hex digits.
type TraceID [16]byte

// SpanID identifies one span within a trace. 64 bits, 16 hex digits.
type SpanID [8]byte

// IsZero reports whether the ID is unset.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports whether the ID is unset.
func (s SpanID) IsZero() bool { return s == SpanID{} }

func (t TraceID) String() string { return hex.EncodeToString(t[:]) }
func (s SpanID) String() string  { return hex.EncodeToString(s[:]) }

// MarshalJSON renders the ID as a hex string ("" when zero, so parent
// links of root spans read as absent).
func (t TraceID) MarshalJSON() ([]byte, error) { return idJSON(t[:], t.IsZero()) }

// MarshalJSON renders the ID as a hex string ("" when zero).
func (s SpanID) MarshalJSON() ([]byte, error) { return idJSON(s[:], s.IsZero()) }

func idJSON(b []byte, zero bool) ([]byte, error) {
	if zero {
		return []byte(`""`), nil
	}
	return json.Marshal(hex.EncodeToString(b))
}

// UnmarshalJSON accepts the hex form ("" or absent means zero).
func (t *TraceID) UnmarshalJSON(b []byte) error { return idFromJSON(b, t[:]) }

// UnmarshalJSON accepts the hex form ("" or absent means zero).
func (s *SpanID) UnmarshalJSON(b []byte) error { return idFromJSON(b, s[:]) }

func idFromJSON(b, dst []byte) error {
	var str string
	if err := json.Unmarshal(b, &str); err != nil {
		return err
	}
	if str == "" {
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	raw, err := hex.DecodeString(str)
	if err != nil || len(raw) != len(dst) {
		// Tolerate foreign IDs rather than failing a whole archive load:
		// an unparseable ID degrades to zero, exactly like a malformed
		// wire header degrades to a fresh trace.
		for i := range dst {
			dst[i] = 0
		}
		return nil
	}
	copy(dst, raw)
	return nil
}

// randomBytes fills b from math/rand/v2's ChaCha8 stream: OS-seeded,
// per-P, and lock-free, where crypto/rand would pay a getrandom(2)
// syscall per ID. Trace and span IDs need collision resistance, not
// secrecy — minting them must cost nanoseconds because every traced
// request mints several.
func randomBytes(b []byte) {
	for len(b) >= 8 {
		binary.BigEndian.PutUint64(b, rand.Uint64())
		b = b[8:]
	}
	if len(b) > 0 {
		var tail [8]byte
		binary.BigEndian.PutUint64(tail[:], rand.Uint64())
		copy(b, tail[:])
	}
}

// NewTraceID mints a random trace identifier.
func NewTraceID() TraceID {
	var t TraceID
	randomBytes(t[:])
	return t
}

// NewSpanID mints a random span identifier.
func NewSpanID() SpanID {
	var s SpanID
	randomBytes(s[:])
	return s
}

// SpanContext is the propagated slice of a span: enough for a child —
// in-process or across the wire — to link itself under a parent.
type SpanContext struct {
	Trace TraceID
	Span  SpanID
}

// Valid reports whether the context names a real span.
func (sc SpanContext) Valid() bool { return !sc.Trace.IsZero() && !sc.Span.IsZero() }

// headerLen is the exact length of a well-formed x-trace value:
// 32 hex trace digits, '-', 16 hex span digits.
const headerLen = 32 + 1 + 16

// Header renders the context in x-trace wire form:
// "<32 hex trace>-<16 hex span>".
func (sc SpanContext) Header() string { return sc.Trace.String() + "-" + sc.Span.String() }

// ParseTraceHeader decodes an x-trace header value. It is deliberately
// unforgiving in format but forgiving in consequence: any malformed,
// truncated, oversized, or absent value yields ok == false, which
// callers treat as "start a fresh trace" — a bad header can never fail a
// request.
func ParseTraceHeader(v string) (sc SpanContext, ok bool) {
	if len(v) != headerLen || v[32] != '-' {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.Trace[:], []byte(v[:32])); err != nil {
		return SpanContext{}, false
	}
	if _, err := hex.Decode(sc.Span[:], []byte(v[33:])); err != nil {
		return SpanContext{}, false
	}
	if !sc.Valid() {
		return SpanContext{}, false
	}
	return sc, true
}

// Span is one completed timed phase of one request on one service — the
// unit a SpanCollector retains and traceio archives. Times are wall
// clock (Unix nanoseconds) so spans from different processes on a
// time-synchronized host merge into one timeline.
type Span struct {
	Trace  TraceID `json:"trace"`
	ID     SpanID  `json:"span"`
	Parent SpanID  `json:"parent"` // zero for a trace root

	// Service names the process role recording the span: "client",
	// "relay", "origin".
	Service string `json:"svc"`
	// Phase names what the span timed: "select", "race", "transfer",
	// "dial", "request-write", "ttfb", "stream", "verify", "forward",
	// "serve".
	Phase string `json:"phase"`

	Start    int64 `json:"start"` // wall clock, Unix nanoseconds
	Duration int64 `json:"dur"`   // nanoseconds

	Class string            `json:"class"`           // ErrClass.String() of the outcome
	Err   string            `json:"err,omitempty"`   // failure detail, "" on success
	Attrs map[string]string `json:"attrs,omitempty"` // free-form dimensions (path, bytes, …)
}

// EndTime returns the span's end in Unix nanoseconds.
func (s Span) EndTime() int64 { return s.Start + s.Duration }

// Context returns the propagation slice of the span.
func (s Span) Context() SpanContext { return SpanContext{Trace: s.Trace, Span: s.ID} }

// SpanCollector retains completed spans under the tail policy of
// tailspan.go: a trace is buffered until its local root ends, then kept
// or dropped whole, and kept traces live within a byte budget. Safe for
// concurrent use. A nil *SpanCollector is the disabled state: every
// method no-ops.
type SpanCollector struct {
	mu   sync.Mutex
	seq  uint64
	tail tailState
}

func (c *SpanCollector) add(s Span) {
	c.mu.Lock()
	c.seq++
	c.tail.add(s, c.seq)
	c.mu.Unlock()
}

// Spans returns the retained spans: kept traces in arrival order, then
// the traces still awaiting their root. Nil-safe.
func (c *SpanCollector) Spans() []Span {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tail.spans()
}

// Seen returns how many spans the collector has ever received. Nil-safe.
func (c *SpanCollector) Seen() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.seq
}

// Dropped returns how many spans the policy discarded. Nil-safe.
func (c *SpanCollector) Dropped() uint64 {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.tail.stats.DroppedSpans
}

// Record adds a completed span, minting the IDs and the ok class it
// leaves unset. Nil-safe.
func (c *SpanCollector) Record(s Span) {
	if c == nil {
		return
	}
	if s.Trace.IsZero() {
		s.Trace = NewTraceID()
	}
	if s.ID.IsZero() {
		s.ID = NewSpanID()
	}
	if s.Class == "" {
		s.Class = ClassOK.String()
	}
	c.add(s)
}

// spanCtxKey carries a SpanContext through a context.Context, linking
// engine-level root spans to the transport-level phase spans beneath
// them without widening any interface.
type spanCtxKey struct{}

// ContextWithSpan returns a context carrying sc as the current parent
// span.
func ContextWithSpan(ctx context.Context, sc SpanContext) context.Context {
	return context.WithValue(ctx, spanCtxKey{}, sc)
}

// SpanFromContext returns the current parent span context, if any.
func SpanFromContext(ctx context.Context) (SpanContext, bool) {
	sc, ok := ctx.Value(spanCtxKey{}).(SpanContext)
	return sc, ok && sc.Valid()
}
