// Package obs is the observability layer for the indirect-routing stack:
// the record of a finished operation plus the sinks that fold it.
//
// The paper's results — 45% indirect selection rate, the Table I
// improvement/penalty statistics, Section V's per-node utilization — are
// all tallies over finished downloads. The selection engine describes
// each operation once, when it ends, as an Op: the transfers it issued
// (probes and payload, with their times, classes, retries and streamed
// bytes) and the route it committed to. Two sinks fold that record:
// Metrics (atomic counters and fixed-bucket histograms, snapshot-able
// as JSON — the live counterpart of the paper's measurement tables) and
// the HealthMonitor (per-path rolling windows, health.go), which a
// Metrics links to so one fold feeds both. What one transfer did —
// phases, bytes, outcome, trace — is the transfer's record (package
// flight), whose row in the flight store also yields its Spans.
//
// Observation is passive: the record carries transport timestamps and
// folding it never advances any clock, so the virtual-time simulator
// produces bit-identical results with or without a collector attached.
// A nil *Metrics records nothing.
//
// The package deliberately depends on nothing above internal/stats:
// records identify paths by plain strings (origin server, object, relay
// name) so every layer from the selection engine to the daemons can
// report without import cycles.
package obs

// PathID identifies what a transfer is about: the origin server, the
// object, and the route. Via is the intermediate's name, with
// "" denoting the direct path, mirroring core.Path.
type PathID struct {
	Server string `json:"server,omitempty"`
	Object string `json:"object,omitempty"`
	Via    string `json:"via,omitempty"`
}

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

// Op is one finished operation as the selection engine saw it: every
// transfer it issued, in the order it issued them (probes by index, then
// payload), and the route it committed to, if it committed. Metrics and
// the HealthMonitor each fold an Op in one call; it is the one
// description of an operation the engine gives.
type Op struct {
	// Route is the committed route's label (see PathID.Label); it means
	// something only when Selected.
	Route    string
	Selected bool
	Legs     []Leg
}

// Leg is one issued transfer of an operation.
type Leg struct {
	Route string // route label ("direct" or the relay name)
	Probe bool   // a probe of the race, else a payload transfer

	// Start and End are transport-clock seconds; Bytes were requested.
	Start, End float64
	Bytes      int64
	Class      ErrClass

	// Reaped marks a loser the engine canceled once the race was decided.
	Reaped bool
	// Aborted marks a transfer that ended with its context's typed error.
	Aborted bool
	// Streamed counts every payload byte that arrived, across retries.
	Streamed int64
	// Retries holds the transport-clock times of its cold re-attempts.
	Retries []float64
}

// Progress reports payload bytes flowing through a streaming transfer:
// Delivered of the Total requested bytes have arrived, the last Chunk of
// them just now. The real transport hands one per stream-buffer fill
// (64 KB granularity) to its Progress hook, so a live consumer can show
// per-transfer progress without waiting for the operation to finish. A
// transfer that is retried cold restarts its Delivered count at zero.
type Progress struct {
	Path      PathID
	Time      float64
	Offset    int64 // range start of the transfer
	Chunk     int64 // bytes in this increment
	Delivered int64 // cumulative bytes delivered by this attempt
	Total     int64 // bytes requested
}
