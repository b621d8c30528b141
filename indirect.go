// Package repro is an open-source reproduction of "A Performance Analysis
// of Indirect Routing" (Opos, Ramabhadran, Terry, Pasquale, Snoeren,
// Vahdat — IPPS 2007): a library for throughput-seeking indirect routing,
// the wide-area network simulator its evaluation runs on, and a real TCP
// relay stack for deployment.
//
// The root package is a facade over the implementation packages:
//
//   - the selection engine (probe, race, select, fetch) — internal/core
//   - the virtual-time network simulator — internal/simnet, internal/topo,
//     internal/httpsim, internal/tcpmodel
//   - the real TCP origin/relay daemons and transport — internal/relay,
//     internal/realnet, internal/httpx, internal/shaper
//   - the paper's evaluation drivers — internal/experiment,
//     internal/report
//
// # Quick use (real network)
//
//	tr := &repro.RealTransport{
//	    Servers: map[string]string{"origin": "10.0.0.1:8080"},
//	    Relays:  map[string]string{"campus": "10.0.0.2:8081"},
//	}
//	c := repro.New(tr,
//	    repro.WithTimeout(30*time.Second),
//	    repro.WithRetry(2, 200*time.Millisecond))
//	obj := repro.Object{Server: "origin", Name: "large.bin", Size: 4_000_000}
//	out := c.SelectAndFetch(ctx, obj, []string{"campus"})
//	fmt.Println(out.Selected, out.Throughput())
//
// Failures carry typed sentinels: errors.Is(out.Err, repro.ErrProbeTimeout),
// repro.ErrCanceled, repro.ErrAllPathsFailed.
//
// See the examples directory for simulated and loopback-TCP walkthroughs,
// and cmd/indirectlab for the paper's full evaluation.
package repro

import (
	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/realnet"
)

// Core selection-engine types, re-exported for downstream users.
type (
	// Object names a downloadable resource of known size.
	Object = core.Object
	// Path identifies the direct route or a relay by name.
	Path = core.Path
	// Outcome describes one select-and-fetch operation.
	Outcome = core.Outcome
	// Transport moves object ranges over paths (simulated or real).
	Transport = core.Transport
	// Handle is an in-flight transfer.
	Handle = core.Handle
	// ProbeResult is a probe-phase transfer result.
	ProbeResult = core.ProbeResult
	// FetchResult is a completed transfer result.
	FetchResult = core.FetchResult
	// Rule selects the probe winner.
	Rule = core.Rule

	// Downloader fetches adaptively: segments, periodic re-races,
	// failover.
	Downloader = core.Downloader
	// DownloadResult summarizes an adaptive download.
	DownloadResult = core.DownloadResult
	// Segment is one contiguous fetch within an adaptive download.
	Segment = core.Segment

	// MultipathDownloader stripes an object across paths concurrently.
	MultipathDownloader = core.MultipathDownloader
	// MultipathResult summarizes a striped download.
	MultipathResult = core.MultipathResult
	// PathShare is one path's contribution to a striped download.
	PathShare = core.PathShare

	// RealTransport implements Transport over live TCP via relay daemons.
	RealTransport = realnet.Transport
	// RealPoolStats is a point-in-time view of a RealTransport's
	// connection-pool counters (RealTransport.PoolStats).
	RealPoolStats = realnet.PoolStats

	// Metrics folds finished operations into counters, per-path
	// utilization tallies, and histograms.
	Metrics = obs.Metrics
	// MetricsSnapshot is a point-in-time view of a Metrics collector.
	MetricsSnapshot = obs.Snapshot
	// PathMetrics is one route's aggregated counters in a snapshot.
	PathMetrics = obs.PathSnapshot
	// PathID identifies what a transfer is about (server, object, route).
	PathID = obs.PathID
	// ErrClass buckets transfer errors for observability.
	ErrClass = obs.ErrClass

	// ProgressEvent reports payload bytes flowing through a streaming
	// transfer, one per buffer chunk, to RealTransport.Progress.
	ProgressEvent = obs.Progress

	// Distributed-tracing types (attach a store with WithSpans).
	//
	// TraceID identifies one end-to-end operation across processes.
	TraceID = obs.TraceID
	// SpanID identifies one span within a trace.
	SpanID = obs.SpanID
	// SpanContext is the propagated (trace, span) pair.
	SpanContext = obs.SpanContext
	// Span is one completed timed phase of one request on one service.
	Span = obs.Span
	// Recorder is the store of finished transfers: one row per transfer
	// with its spans, errored and slow traces kept longest.
	Recorder = flight.Recorder
	// TraceNode is one span plus its children in a stitched trace tree.
	TraceNode = obs.TraceNode
	// HistogramSnapshot is a point-in-time histogram copy with quantiles.
	HistogramSnapshot = obs.HistogramSnapshot

	// Path-health telemetry types (attach a monitor with
	// WithHealthMonitor).
	//
	// HealthMonitor folds transfer outcomes into per-path rolling windows
	// and keeps a damped health state per path.
	HealthMonitor = obs.HealthMonitor
	// HealthConfig parameterizes a HealthMonitor (zero value = defaults).
	HealthConfig = obs.HealthConfig
	// HealthState is a path's damped condition.
	HealthState = obs.HealthState
	// HealthSnapshot is a monitor's full per-path view at one instant.
	HealthSnapshot = obs.HealthSnapshot
	// PathHealthInfo is one path's point-in-time health view in a
	// snapshot.
	PathHealthInfo = obs.PathHealth
	// HealthTransition is one committed health-state change.
	HealthTransition = obs.HealthTransition
)

// Observability error classes.
const (
	ClassOK       = obs.ClassOK
	ClassCanceled = obs.ClassCanceled
	ClassTimeout  = obs.ClassTimeout
	ClassStatus   = obs.ClassStatus
	ClassFailed   = obs.ClassFailed
)

// Damped path-health states, best to worst.
const (
	HealthUnknown  = obs.HealthUnknown
	HealthHealthy  = obs.HealthHealthy
	HealthDegraded = obs.HealthDegraded
	HealthDown     = obs.HealthDown
)

// NewMetrics returns an empty standalone metrics collector (every Client
// already carries one; this is for wiring into a downloader directly).
func NewMetrics() *Metrics { return obs.NewMetrics() }

// NewRecorder returns a tracing store holding the last capacity finished
// transfers (512 when capacity <= 0); when it is full, errored and slow
// traces are overwritten last. Read its spans with Recorder.Spans. Wire
// it into a client with WithSpans, a relay with relay.WithFlight, or an
// origin through its Flight field.
func NewRecorder(capacity int) *Recorder { return flight.NewRecorder(capacity, true) }

// NewHealthMonitor returns a path-health monitor with cfg's gaps filled
// by defaults (60 s window, 12 buckets, 2-evaluation hysteresis). Wire
// it into a client with WithHealthMonitor, a relay with
// relay.WithHealthMonitor, or an origin through its Health field.
func NewHealthMonitor(cfg HealthConfig) *HealthMonitor { return obs.NewHealthMonitor(cfg) }

// HealthWallClock returns a wall clock (seconds since now) for
// HealthConfig.Clock in long-running processes; leave Clock nil to run
// on event time (deterministic with the simulator).
func HealthWallClock() func() float64 { return obs.WallClock() }

// TraceIDs returns the distinct trace IDs present in spans, first-seen
// order.
func TraceIDs(spans []Span) []TraceID { return obs.TraceIDs(spans) }

// StitchTrace assembles one trace's spans — merged from any number of
// processes' archives — into parent-child trees.
func StitchTrace(trace TraceID, spans []Span) []*TraceNode { return obs.StitchTrace(trace, spans) }

// FormatTrace renders stitched trees as an indented timeline.
func FormatTrace(trace TraceID, roots []*TraceNode) string { return obs.FormatTrace(trace, roots) }

// ErrClassOf buckets an error into the observability taxonomy.
func ErrClassOf(err error) ErrClass { return core.ErrClassOf(err) }

// Selection rules.
const (
	FirstFinished = core.FirstFinished
	MaxThroughput = core.MaxThroughput
)

// Direct is the Path.Via value for the default (non-relayed) route.
const Direct = core.Direct

// DefaultProbeBytes is the paper's probe size x (100 KB).
const DefaultProbeBytes = core.DefaultProbeBytes

// Improvement returns the paper's improvement metric in percent.
func Improvement(selected, direct float64) float64 {
	return core.Improvement(selected, direct)
}

// Penalty expresses a slowdown as the paper's penalty metric in percent.
func Penalty(selected, direct float64) float64 {
	return core.Penalty(selected, direct)
}
