// Package core implements the paper's contribution: throughput-seeking
// indirect routing. A client downloading a large object probes the direct
// path and one or more indirect paths (through intermediate overlay nodes)
// with an initial range request, selects the path whose probe performed
// best, and fetches the remainder of the object over the selected path.
//
// The package is transport-agnostic: the same selection engine drives the
// virtual-time simulator (package httpsim) and the real TCP relay stack
// (package realnet) through the five methods of Transport. The engine
// exists once — Race runs an operation to its commit point and Fetch
// finishes it; SelectAndFetch is the two in sequence — and every
// operation is one context-first function. Paths are identified by the
// intermediate's name, with the empty string denoting the direct path.
package core

import "context"

// Direct is the Path.Via value denoting the default (non-relayed) route.
const Direct = ""

// Path identifies a route to the origin server: either the direct path or
// an indirect path through a named intermediate node.
type Path struct {
	Via string // intermediate name; Direct ("") for the default route
}

// IsDirect reports whether the path is the default route.
func (p Path) IsDirect() bool { return p.Via == Direct }

func (p Path) String() string {
	if p.IsDirect() {
		return "direct"
	}
	return "via " + p.Via
}

// Object names a downloadable resource of known size on an origin server.
type Object struct {
	Server string // origin server name
	Name   string // resource name
	Size   int64  // total size, bytes
}

// FetchResult describes one completed (or failed) range transfer.
type FetchResult struct {
	Path   Path
	Offset int64
	Bytes  int64 // bytes requested
	// Delivered is how many payload bytes actually arrived before a
	// failure. Streaming transports fill it in on error; it is 0 on
	// success (Bytes is authoritative then) and for transports that don't
	// track partial delivery.
	Delivered  int64
	Start, End float64 // transport timestamps, seconds
	Err        error

	// Streamed counts every payload byte that arrived, across cold
	// retries and whether or not the transfer then succeeded; Retries
	// holds the transport timestamps of those retries. Transports that
	// neither stream nor retry (the simulator) leave both zero.
	Streamed int64
	Retries  []float64
}

// Duration returns the transfer duration in seconds.
func (r FetchResult) Duration() float64 { return r.End - r.Start }

// DeliveredBytes returns the payload bytes that actually reached the
// client: everything requested on success, the partial count on failure.
func (r FetchResult) DeliveredBytes() int64 {
	if r.Err == nil {
		return r.Bytes
	}
	return r.Delivered
}

// Throughput returns the transfer's average throughput in bits/sec, or 0
// for failed or instantaneous transfers.
func (r FetchResult) Throughput() float64 {
	d := r.Duration()
	if r.Err != nil || d <= 0 {
		return 0
	}
	return float64(r.Bytes) * 8 / d
}

// ProbeResult is a FetchResult from the probing phase.
type ProbeResult struct {
	FetchResult
}

// Handle is an in-flight transfer started on a Transport.
type Handle interface {
	// Done reports whether the transfer has finished (or failed).
	Done() bool
	// Result returns the transfer's outcome; valid only once Done.
	Result() FetchResult
}

// Transport moves object ranges over paths. Implementations decide what
// "time" means: the simulator uses virtual seconds, the real stack uses
// wall-clock seconds. This is the whole contract, and both transports
// (httpsim.World, realnet.Transport) meet all of it: the root package's
// TestTransportContract runs one table against the two.
type Transport interface {
	// StartCtx begins transferring bytes [off, off+n) of obj over path on
	// a fresh connection. It never blocks: a request that cannot be
	// served, or a ctx that is already dead, yields a handle that is born
	// done and carries the error (ErrCanceled / ErrProbeTimeout for a
	// dead ctx). A transport whose transfers can be abandoned also fails
	// the handle promptly when ctx dies mid-transfer and releases what
	// the transfer holds (on the real stack, the TCP connection); the
	// virtual-time simulator honours ctx at start only, because a context
	// dies in wall-clock time and has no meaning in simulated seconds.
	StartCtx(ctx context.Context, obj Object, path Path, off, n int64) Handle
	// StartWarmCtx is StartCtx continuing on the path's established
	// connection: after a probe wins, the client requests the remainder
	// over the same connection, paying neither connection setup nor a
	// fresh slow start.
	StartWarmCtx(ctx context.Context, obj Object, path Path, off, n int64) Handle
	// Wait blocks until all handles are done.
	Wait(hs ...Handle)
	// WaitAny blocks until at least one of the handles is done and
	// returns its index. It is what lets the first-finished rule commit
	// to the winning probe while the losers are still transferring.
	WaitAny(hs ...Handle) int
	// Now returns the transport's current time in seconds.
	Now() float64
}
