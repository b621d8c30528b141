// Package obs is the observability layer for the indirect-routing stack:
// structured selection-lifecycle events plus aggregate metrics.
//
// The paper's results — 45% indirect selection rate, the Table I
// improvement/penalty statistics, Section V's per-node utilization — are
// all aggregate statistics over individual probe races. The selection
// engine, the real transport, and the daemons emit typed events at every
// step of a race (probe start/finish, commit, loser cancellation, retry,
// remainder transfer); this package defines those events, the Observer
// interface that receives them, and the production sinks: Metrics
// (striped counters and fixed-bucket histograms, snapshot-able as JSON —
// the live counterpart of the paper's measurement tables) and the
// HealthMonitor (per-path rolling windows, health.go). An application's
// own sink embeds Base and implements the callbacks it wants. What one
// request did — phases, bytes, outcome, trace — is not an event log but
// the transfer's record (package flight), which also derives every Span
// the SpanCollector here retains.
//
// Observation is passive: observers see transport timestamps but never
// advance any clock, so the virtual-time simulator produces bit-identical
// results with or without an observer attached. A nil Observer disables
// emission entirely; emitters guard every callback with a nil check, so
// the unobserved hot path pays nothing.
//
// The package deliberately depends on nothing above internal/stats:
// events identify paths by plain strings (origin server, object, relay
// name) so every layer from the selection engine to the daemons can emit
// without import cycles.
package obs

// PathID identifies what a transfer-lifecycle event was about: the origin
// server, the object, and the route. Via is the intermediate's name, with
// "" denoting the direct path, mirroring core.Path.
type PathID struct {
	Server string `json:"server,omitempty"`
	Object string `json:"object,omitempty"`
	Via    string `json:"via,omitempty"`
}

// Direct reports whether the event's route is the default (non-relayed)
// path.
func (p PathID) Direct() bool { return p.Via == "" }

// Label returns the route name used for per-path aggregation: the relay
// name, or "direct" for the default route.
func (p PathID) Label() string {
	if p.Via == "" {
		return "direct"
	}
	return p.Via
}

// ErrClass buckets transfer errors into the classes the paper's analysis
// distinguishes: success, cancellation (the engine reaping a losing
// probe, or the caller abandoning the operation), deadline expiry (the
// penalty case), a server that answered with a failure status, and
// everything else (dial and I/O failures).
type ErrClass uint8

// Error classes, from best to worst.
const (
	ClassOK ErrClass = iota
	ClassCanceled
	ClassTimeout
	ClassStatus
	ClassFailed
)

func (c ErrClass) String() string {
	switch c {
	case ClassOK:
		return "ok"
	case ClassCanceled:
		return "canceled"
	case ClassTimeout:
		return "timeout"
	case ClassStatus:
		return "status"
	case ClassFailed:
		return "failed"
	}
	return "unknown"
}

// ProbeStart reports that an x-byte probe was launched on a path.
type ProbeStart struct {
	Path   PathID
	Time   float64 // transport clock, seconds
	Offset int64
	Bytes  int64
}

// ProbeEnd reports a probe's outcome, successful or not.
type ProbeEnd struct {
	Path     PathID
	Time     float64 // when the probe finished
	Offset   int64
	Bytes    int64
	Duration float64 // seconds from issue to completion
	Class    ErrClass
	Err      string
}

// ProbeCancel reports that the engine abandoned a still-running probe
// because the race was already decided (the loser-reaping the PR-1
// cancellation work introduced).
type ProbeCancel struct {
	Path PathID
	Time float64
}

// Selection reports the commit point of one selection operation: the path
// the remainder will use. Exactly one Selection is emitted per
// select-and-fetch (or monitored transfer), so its count equals the
// operation count.
type Selection struct {
	Path          PathID
	Time          float64
	Rule          string // comparison rule, or "monitored" for probe-free picks
	Candidates    int    // paths considered, including direct
	Indirect      bool
	ProbeDuration float64 // length of the probing phase, seconds
}

// TransferStart reports a payload transfer being issued (the remainder
// after a race, a monitored whole-object fetch, a multipath chunk, or an
// adaptive segment).
type TransferStart struct {
	Path   PathID
	Time   float64
	Offset int64
	Bytes  int64
	Warm   bool // continues an established connection
}

// TransferEnd reports a payload transfer's outcome.
type TransferEnd struct {
	Path     PathID
	Time     float64
	Offset   int64
	Bytes    int64
	Duration float64
	Warm     bool
	Class    ErrClass
	Err      string
}

// Retry reports the transport scheduling a cold re-attempt after a
// transient failure (realnet's dial/IO retry with exponential backoff).
type Retry struct {
	Path    PathID
	Time    float64
	Attempt int     // 1-based retry number
	Backoff float64 // chosen backoff before the attempt, seconds
	Err     string  // the failure that triggered the retry
}

// Abort reports the transport tearing a transfer down because its context
// died (cancellation or deadline) — the promoted form of realnet's old
// Canceled counter.
type Abort struct {
	Path  PathID
	Time  float64
	Class ErrClass
}

// Progress reports payload bytes flowing through a streaming transfer:
// Delivered of the Total requested bytes have arrived, the last Chunk of
// them just now. The real transport emits one per stream-buffer fill
// (64 KB granularity), so a live consumer can show per-transfer progress
// without waiting for TransferFinished. A transfer that is retried cold
// restarts its Delivered count at zero.
type Progress struct {
	Path      PathID
	Time      float64
	Offset    int64 // range start of the transfer
	Chunk     int64 // bytes in this increment
	Delivered int64 // cumulative bytes delivered by this attempt
	Total     int64 // bytes requested
}

// ProgressObserver is an optional Observer extension for byte-level
// progress. It is separate from Observer because progress events fire per
// buffer chunk — orders of magnitude more often than lifecycle events —
// and most observers should not pay for them.
// Emitters deliver progress only to observers that also implement this
// interface; use EmitProgress to do the type assertion in one place.
type ProgressObserver interface {
	TransferProgress(Progress)
}

// EmitProgress delivers e to o when o implements ProgressObserver; a nil
// or progress-blind observer costs one type assertion.
func EmitProgress(o Observer, e Progress) {
	if po, ok := o.(ProgressObserver); ok {
		po.TransferProgress(e)
	}
}

// Observer receives selection-lifecycle events. Implementations must be
// safe for concurrent use: races probe paths in parallel and the real
// transport emits from transfer goroutines. Embed Base to implement only
// the callbacks of interest.
type Observer interface {
	ProbeStarted(ProbeStart)
	ProbeFinished(ProbeEnd)
	ProbeCanceled(ProbeCancel)
	PathSelected(Selection)
	TransferStarted(TransferStart)
	TransferFinished(TransferEnd)
	RetryScheduled(Retry)
	TransferAborted(Abort)
}

// Base is a no-op Observer for embedding, so custom observers implement
// only the callbacks they care about.
type Base struct{}

func (Base) ProbeStarted(ProbeStart)       {}
func (Base) ProbeFinished(ProbeEnd)        {}
func (Base) ProbeCanceled(ProbeCancel)     {}
func (Base) PathSelected(Selection)        {}
func (Base) TransferStarted(TransferStart) {}
func (Base) TransferFinished(TransferEnd)  {}
func (Base) RetryScheduled(Retry)          {}
func (Base) TransferAborted(Abort)         {}

var _ Observer = Base{}

// Multi fans events out to several observers in order. Nil entries are
// skipped; with no live observers it returns nil, which emitters treat as
// "don't emit".
func Multi(obs ...Observer) Observer {
	var live multi
	for _, o := range obs {
		if o != nil {
			live = append(live, o)
		}
	}
	switch len(live) {
	case 0:
		return nil
	case 1:
		return live[0]
	}
	return live
}

type multi []Observer

func (m multi) ProbeStarted(e ProbeStart) {
	for _, o := range m {
		o.ProbeStarted(e)
	}
}
func (m multi) ProbeFinished(e ProbeEnd) {
	for _, o := range m {
		o.ProbeFinished(e)
	}
}
func (m multi) ProbeCanceled(e ProbeCancel) {
	for _, o := range m {
		o.ProbeCanceled(e)
	}
}
func (m multi) PathSelected(e Selection) {
	for _, o := range m {
		o.PathSelected(e)
	}
}
func (m multi) TransferStarted(e TransferStart) {
	for _, o := range m {
		o.TransferStarted(e)
	}
}
func (m multi) TransferFinished(e TransferEnd) {
	for _, o := range m {
		o.TransferFinished(e)
	}
}
func (m multi) RetryScheduled(e Retry) {
	for _, o := range m {
		o.RetryScheduled(e)
	}
}
func (m multi) TransferAborted(e Abort) {
	for _, o := range m {
		o.TransferAborted(e)
	}
}

// multi implements the optional extension too, forwarding to whichever
// members implement it — so wrapping observers in Multi never hides
// progress from a sink that wants it.
func (m multi) TransferProgress(e Progress) {
	for _, o := range m {
		EmitProgress(o, e)
	}
}

var _ ProgressObserver = multi(nil)
