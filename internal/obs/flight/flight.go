// Package flight is the diagnostics half of the observability plane:
// where internal/obs answers "how is the system doing" in aggregate
// (counters, histograms, health scores), flight answers "what happened
// to THIS transfer" — and keeps enough recent context around that the
// answer survives the anomaly that raised the question.
//
// Four pieces:
//
//   - the store of finished transfers (Recorder): one bounded-ring
//     canonical row per finished transfer/forward/serve — path, phase
//     durations, bytes, cache disposition, retries, outcome class, trace
//     ID and, when tracing, the row's spans — served filterable at
//     /debug/requests, stitched into bundles, and archived by the
//     daemons' -trace; under pressure it keeps errored and slow traces
//     longest (tail.go);
//   - the in-flight inspector (the Recorder's active table): what every
//     live transfer is doing right now — current phase, bytes so far,
//     age — at /debug/active, so a wedged transfer is visible while it
//     hangs instead of after the stall guard fires;
//   - the continuous profiler (Profiler): periodic CPU/heap/goroutine
//     captures into a byte-bounded on-disk ring, with pprof labels on
//     the fetch/forward hot paths while a profiler is running;
//   - the trigger engine (Engine): watches the health monitor's →down
//     transitions and, rate-limited per path, snapshots a debug bundle of
//     all of the above.
//
// The transfer path writes none of this directly. It marks one Record
// per transfer (record.go); the record's single Finish writes its row
// here, then feeds the latency histogram and the health fold. A nil
// *Recorder is the disabled state: a record started without one keeps
// no row, and every read method below returns nothing.
package flight

import (
	"net/url"
	"sort"
	"strconv"
	"strings"
	"sync"

	"repro/internal/obs"
)

// Phase is one named slice of a transfer's lifetime, measured between
// consecutive Record.Phase marks.
type Phase struct {
	Name string  `json:"name"`
	Secs float64 `json:"secs"`
	// Died marks the phase an error ended the transfer in.
	Died bool `json:"died,omitempty"`
	// When tracing, the phase is also a span: its ID, its start (ns after
	// the record's), its attributes, and the work that overlapped it (the
	// stream's verifier) as phases nested beneath.
	Span  string            `json:"span,omitempty"`
	Off   int64             `json:"off_ns,omitempty"`
	Attrs map[string]string `json:"attrs,omitempty"`
	Sub   []Phase           `json:"sub,omitempty"`
}

// Event is one wide event: the single canonical record of one finished
// transfer (client side), forward (relay side) or serve (origin side).
// One row holds every dimension an investigation pivots on, so "show me
// the slow misses on path X" is one filter pass instead of a join across
// subsystems — and, when tracing, the row's spans are derived from it
// (Recorder.Spans), so the timeline and the row cannot disagree.
type Event struct {
	// Seq is the recorder-assigned sequence number (1-based, monotonic).
	Seq uint64 `json:"seq"`
	// Wall is the finish time, Unix nanoseconds.
	Wall int64 `json:"wall_ns"`
	// Service is the recording process role: "client", "relay", "origin".
	Service string `json:"svc"`
	// Op names what the record timed, the name of its span: "transfer",
	// "select", "forward", "serve".
	Op string `json:"op,omitempty"`
	// Path is the outcome's path key — obs.PathID.Label() on the client,
	// the upstream address on the relay — matching the health monitor's
	// fold key so wide events, health history, and triggers align.
	Path string `json:"path"`
	// Object is the object name ("" when the request never named one).
	Object string `json:"object,omitempty"`
	// Trace is the transfer's trace ID (32 hex digits) when it carried
	// one, linking this row to its stitched span timeline.
	Trace string `json:"trace,omitempty"`
	// Class is the outcome's obs.ErrClass.String(); Err the failure
	// detail.
	Class string `json:"class"`
	Err   string `json:"err,omitempty"`
	// Duration is start-to-finish seconds; Bytes the payload bytes
	// delivered.
	Duration float64 `json:"dur_s"`
	Bytes    int64   `json:"bytes"`
	// Cache is the cache disposition: "hit", "shared", "miss", or ""
	// when no cache was consulted.
	Cache string `json:"cache,omitempty"`
	// Retries counts cold re-attempts within this transfer.
	Retries int `json:"retries,omitempty"`
	// Warm marks a transfer that reused a pooled connection.
	Warm bool `json:"warm,omitempty"`
	// Phases are the measured phase durations, in transition order.
	Phases []Phase `json:"phases,omitempty"`

	// When tracing, the row is also a span: its ID and its parent's (16
	// hex digits; no parent for a trace root), its wall-clock start (Unix
	// nanoseconds) and its attributes.
	Span   string            `json:"span,omitempty"`
	Parent string            `json:"parent,omitempty"`
	Start  int64             `json:"start_ns,omitempty"`
	Attrs  map[string]string `json:"attrs,omitempty"`
}

// Recorder is the one store of finished transfers — a bounded ring of
// wide events, one row per record — plus the in-flight table. Built
// tracing, every record it is attached to mints span identity and its
// row carries the spans. When the ring is full a new row overwrites the
// oldest row whose trace the tail rule has not forced (tail.go). Safe
// for concurrent use; a nil *Recorder disables every site.
type Recorder struct {
	trace bool

	mu      sync.Mutex
	idle    sync.Cond // signalled when active empties
	ring    []row
	seq     uint64 // records started
	fin     uint64 // records finished
	dropped uint64 // rows overwritten
	active  map[uint64]*trail
	tail    tail
}

// row is one ring slot: a finished record's event, its place in finish
// order (0 for a slot never written) and whether the tail rule keeps it.
type row struct {
	ev     Event
	fin    uint64
	forced bool
}

// NewRecorder returns a store holding the last ring finished records
// (512 when ring <= 0). With trace set, the records attached to it
// collect spans: they mint span identity, continue it on the wire, and
// leave their spans in their rows.
func NewRecorder(ring int, trace bool) *Recorder {
	if ring <= 0 {
		ring = 512
	}
	r := &Recorder{
		trace:  trace,
		ring:   make([]row, ring),
		active: make(map[uint64]*trail),
		tail:   tail{window: 256, minSlow: 20},
	}
	r.idle.L = &r.mu
	return r
}

// begin gives a record's trail its sequence number and lists it in the
// in-flight table. A nil recorder lists nothing.
func (r *Recorder) begin(t *trail) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.seq++
	t.id = r.seq
	r.active[t.id] = t
	r.mu.Unlock()
}

// finish moves a transfer's event from the in-flight table into the ring,
// into the slot the tail rule gives up.
func (r *Recorder) finish(id uint64, ev Event, elapsed int64) {
	r.mu.Lock()
	delete(r.active, id)
	r.fin++
	r.store(ev, elapsed)
	if len(r.active) == 0 {
		r.idle.Broadcast()
	}
	r.mu.Unlock()
}

// WaitIdle blocks until no attached record is between Start and Finish:
// every row and span of a transfer that has returned is then in the
// store. Nil-safe.
func (r *Recorder) WaitIdle() {
	if r == nil {
		return
	}
	r.mu.Lock()
	for len(r.active) > 0 {
		r.idle.Wait()
	}
	r.mu.Unlock()
}

// Seen returns how many transfers the recorder has ever started.
// Nil-safe.
func (r *Recorder) Seen() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seq
}

// Dropped returns how many finished events newer ones have overwritten.
// Nil-safe.
func (r *Recorder) Dropped() uint64 {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// WriteProm appends the store's two families under prefix, answering
// "how much has rotated out of /debug/requests, bundles and the -trace
// archive?" and "how much of the ring do errored and slow traces pin?"
// (at the cap, half the ring, they age out early). Nil-safe.
func (r *Recorder) WriteProm(p *obs.Prom, prefix string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	dropped, forced := r.dropped, r.tail.rows
	r.mu.Unlock()
	p.Counter(prefix+"_flight_dropped_total", "Finished records the flight store overwrote.", float64(dropped))
	p.Gauge(prefix+"_flight_forced_rows", "Stored rows the tail rule keeps: errored or slowest-decile traces.", float64(forced))
}

// Filter selects wide events; zero-valued fields match everything.
type Filter struct {
	// Path, Class, Object, and Trace match those event fields exactly.
	Path   string
	Class  string
	Object string
	Trace  string
	// N bounds the result to the newest N matches (0 = all retained).
	N int
}

// ParseQuery builds a Filter from a request target's query string
// ("/debug/requests?path=direct&class=failed&n=20"), URL-decoding the
// values. Unknown keys and malformed pairs are ignored; a missing query
// yields the match-all filter.
func ParseQuery(target string) Filter {
	_, query, _ := strings.Cut(target, "?")
	q, _ := url.ParseQuery(query)
	n, _ := strconv.Atoi(q.Get("n"))
	return Filter{Path: q.Get("path"), Class: q.Get("class"), Object: q.Get("object"), Trace: q.Get("trace"), N: n}
}

func (f Filter) match(ev *Event) bool {
	if f.Path != "" && ev.Path != f.Path {
		return false
	}
	if f.Class != "" && ev.Class != f.Class {
		return false
	}
	if f.Object != "" && ev.Object != f.Object {
		return false
	}
	if f.Trace != "" && ev.Trace != f.Trace {
		return false
	}
	return true
}

// rows returns the stored rows that match, oldest finish first. Called
// with r.mu held; this is the cold read path (debug pages, bundles,
// archives), so ordering work stays off the per-record write.
func (r *Recorder) rows(match func(*Event) bool) []*row {
	var out []*row
	for i := range r.ring {
		if rw := &r.ring[i]; rw.fin != 0 && match(&rw.ev) {
			out = append(out, rw)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].fin < out[j].fin })
	return out
}

// Events returns the retained wide events matching f, newest first.
// Nil-safe (nil recorder returns nil).
func (r *Recorder) Events(f Filter) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	rows := r.rows(f.match)
	out := make([]Event, 0, len(rows))
	for i := len(rows) - 1; i >= 0 && (f.N <= 0 || len(out) < f.N); i-- {
		out = append(out, rows[i].ev)
	}
	return out
}

// Spans returns the spans of every stored traced row, rows in finish
// order — within a row its phases, each after the work that overlapped
// it, then the row's own span. Nil-safe.
func (r *Recorder) Spans() []obs.Span { return r.spans(nil) }

// spans expands the stored traced rows that match (all, for nil).
func (r *Recorder) spans(match func(*Event) bool) []obs.Span {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []obs.Span
	for _, rw := range r.rows(func(ev *Event) bool { return ev.Span != "" && (match == nil || match(ev)) }) {
		out = rw.ev.spans(out)
	}
	return out
}

// ActiveTransfer is one in-flight transfer's live view, the
// /debug/active row.
type ActiveTransfer struct {
	ID      uint64  `json:"id"`
	Service string  `json:"svc"`
	Path    string  `json:"path"`
	Object  string  `json:"object,omitempty"`
	Trace   string  `json:"trace,omitempty"`
	Phase   string  `json:"phase"`
	Bytes   int64   `json:"bytes"`
	AgeSecs float64 `json:"age_s"`
	Retries int     `json:"retries,omitempty"`
	Warm    bool    `json:"warm,omitempty"`
}

// Active snapshots the in-flight table, oldest transfer first (the
// likeliest wedge at the top). Nil-safe.
func (r *Recorder) Active() []ActiveTransfer {
	if r == nil {
		return nil
	}
	now := clock()
	r.mu.Lock()
	live := make([]*trail, 0, len(r.active))
	for _, t := range r.active {
		live = append(live, t)
	}
	r.mu.Unlock()
	out := make([]ActiveTransfer, 0, len(live))
	for _, t := range live {
		out = append(out, t.snapshot(now))
	}
	// Oldest first by ID (IDs are start-ordered).
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}
