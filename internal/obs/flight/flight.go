// Package flight is the diagnostics half of the observability plane:
// where internal/obs answers "how is the system doing" in aggregate
// (counters, health scores, burn rates), flight answers "what happened
// to THIS transfer" — and keeps enough recent context around that the
// answer survives the anomaly that raised the question.
//
// Four pieces:
//
//   - the wide-event log (Recorder): one bounded-ring canonical record
//     per finished transfer/forward — path, phase durations, bytes,
//     cache disposition, retries, outcome class, trace ID — served
//     filterable at /debug/requests and optionally archived as JSONL;
//   - the in-flight inspector (the Recorder's active table): what every
//     live transfer is doing right now — current phase, bytes so far,
//     age — at /debug/active, so a wedged transfer is visible while it
//     hangs instead of after the stall guard fires;
//   - the continuous profiler (Profiler): periodic CPU/heap/goroutine
//     captures into a byte-bounded on-disk ring, with pprof labels on
//     the fetch/forward hot paths while a profiler is running;
//   - the trigger engine (Engine): watches SLO fast-burn crossings and
//     health →down transitions and, rate-limited per path, snapshots a
//     debug bundle of all of the above.
//
// The transfer path writes none of this directly. It marks one Record
// per transfer (record.go); the record's single Finish feeds the wide
// event here alongside the spans, the latency histogram and the health
// fold. A nil *Recorder is the disabled state: a record started without
// one keeps no row, and every read method below returns nothing.
package flight

import (
	"encoding/json"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Phase is one named slice of a transfer's lifetime, measured between
// consecutive Record.Phase marks (the span children are cut at the same
// marks: dial, request-write, ttfb, stream, ...).
type Phase struct {
	Name string  `json:"name"`
	Secs float64 `json:"secs"`
}

// Event is one wide event: the single canonical record of one finished
// transfer (client side) or forward (relay side). One row holds every
// dimension an investigation pivots on, so "show me the slow misses on
// path X" is one filter pass instead of a join across subsystems.
type Event struct {
	// Seq is the recorder-assigned sequence number (1-based, monotonic).
	Seq uint64 `json:"seq"`
	// Wall is the finish time, Unix nanoseconds.
	Wall int64 `json:"wall_ns"`
	// Service is the recording process role: "client", "relay".
	Service string `json:"svc"`
	// Path is the outcome's path key — obs.PathID.Label() on the client,
	// the upstream address on the relay — matching the health monitor's
	// fold key so wide events, health history, and triggers align.
	Path string `json:"path"`
	// Object is the object name ("" when the request never named one).
	Object string `json:"object,omitempty"`
	// Trace is the transfer's trace ID (32 hex digits) when tracing was
	// on, linking this row to its stitched span timeline.
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
}

// Config parameterizes a Recorder. The zero value gets defaults.
type Config struct {
	// Ring is how many finished events are retained (default 512).
	Ring int
	// Archive, when set, receives every finished event as one JSON line.
	// Writes happen on a dedicated goroutine behind a bounded queue —
	// a slow or failing sink drops events (counted) rather than ever
	// blocking the transfer path.
	Archive interface{ Write(p []byte) (int, error) }
	// ArchiveQueue bounds the pending archive writes (default 256).
	ArchiveQueue int
}

func (c Config) withDefaults() Config {
	if c.Ring <= 0 {
		c.Ring = 512
	}
	if c.ArchiveQueue <= 0 {
		c.ArchiveQueue = 256
	}
	return c
}

// Recorder is the wide-event log plus the in-flight table. Safe for
// concurrent use; a nil *Recorder disables every site.
type Recorder struct {
	cfg Config

	mu     sync.Mutex
	ring   []Event
	next   int
	full   bool
	seq    uint64
	active map[uint64]*trail

	archCh      chan []byte
	archDropped atomic.Uint64
	archClose   sync.Once
	archDone    chan struct{}
}

// NewRecorder returns a recorder with cfg's gaps filled by defaults.
func NewRecorder(cfg Config) *Recorder {
	cfg = cfg.withDefaults()
	r := &Recorder{
		cfg:    cfg,
		ring:   make([]Event, cfg.Ring),
		active: make(map[uint64]*trail),
	}
	if cfg.Archive != nil {
		r.archCh = make(chan []byte, cfg.ArchiveQueue)
		r.archDone = make(chan struct{})
		go r.archiveLoop()
	}
	return r
}

// archiveLoop drains the archive queue onto the sink. Write errors are
// counted as drops; the loop never stops mid-stream on one bad write.
func (r *Recorder) archiveLoop() {
	defer close(r.archDone)
	for line := range r.archCh {
		if _, err := r.cfg.Archive.Write(line); err != nil {
			r.archDropped.Add(1)
		}
	}
}

// CloseArchive flushes and stops the archive goroutine (no-op without
// an archive, or on a nil recorder). Call on shutdown before closing
// the underlying sink.
func (r *Recorder) CloseArchive() {
	if r == nil || r.archCh == nil {
		return
	}
	r.archClose.Do(func() { close(r.archCh) })
	<-r.archDone
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

// finish moves a transfer's event into the ring and hands it to the
// archive queue (non-blocking: a full queue drops and counts).
func (r *Recorder) finish(id uint64, ev Event) {
	r.mu.Lock()
	delete(r.active, id)
	r.ring[r.next] = ev
	r.next++
	if r.next == len(r.ring) {
		r.next = 0
		r.full = true
	}
	r.mu.Unlock()
	if r.archCh != nil {
		line, err := json.Marshal(ev)
		if err != nil {
			r.archDropped.Add(1)
			return
		}
		select {
		case r.archCh <- append(line, '\n'):
		default:
			r.archDropped.Add(1)
		}
	}
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
	if !r.full {
		return 0
	}
	finished := r.seq - uint64(len(r.active))
	if finished < uint64(len(r.ring)) {
		return 0
	}
	return finished - uint64(len(r.ring))
}

// ArchiveDropped returns how many events the archive path dropped
// (queue full, marshal or write failure). Nil-safe.
func (r *Recorder) ArchiveDropped() uint64 {
	if r == nil {
		return 0
	}
	return r.archDropped.Load()
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
// ("/debug/requests?path=direct&class=failed&n=20"). Unknown keys are
// ignored; a missing or malformed query yields the match-all filter.
func ParseQuery(target string) Filter {
	var f Filter
	_, query, ok := strings.Cut(target, "?")
	if !ok {
		return f
	}
	for _, kv := range strings.Split(query, "&") {
		k, v, ok := strings.Cut(kv, "=")
		if !ok {
			continue
		}
		switch k {
		case "path":
			f.Path = v
		case "class":
			f.Class = v
		case "object":
			f.Object = v
		case "trace":
			f.Trace = v
		case "n", "name":
			// "name" doubles for /debug/bundle?name=; harmless here.
			if n, err := strconv.Atoi(v); err == nil {
				f.N = n
			}
		}
	}
	return f
}

func (f Filter) match(ev Event) bool {
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

// Events returns the retained wide events matching f, newest first.
// Nil-safe (nil recorder returns nil).
func (r *Recorder) Events(f Filter) []Event {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.ring)
	}
	out := make([]Event, 0, n)
	// Walk newest to oldest: the slot before next is the newest event.
	for i := 0; i < n; i++ {
		idx := r.next - 1 - i
		if idx < 0 {
			idx += len(r.ring)
		}
		ev := r.ring[idx]
		if ev.Seq == 0 || !f.match(ev) {
			continue
		}
		out = append(out, ev)
		if f.N > 0 && len(out) >= f.N {
			break
		}
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
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j].ID < out[j-1].ID; j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}
