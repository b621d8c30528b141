// Package tcpmodel models the throughput behaviour of a long-lived TCP
// connection well enough to reproduce the dynamics the indirect-routing
// paper depends on:
//
//   - slow start biases the throughput observed by short probes, which is
//     why the paper probes with x = 100 KB rather than a few packets;
//   - steady-state throughput is capped by the receiver window over the
//     RTT and by the Mathis/PFTK loss ceiling MSS/(RTT·sqrt(2p/3));
//   - available bandwidth on the bottleneck link caps everything else,
//     which the fluid simulator (package simnet) enforces via max-min
//     fair sharing.
//
// The model plugs into simnet by setting a flow's rate cap over time: the
// cap starts at the initial-window rate and doubles every RTT until it
// reaches the steady-state ceiling (slow start in the fluid limit).
package tcpmodel

import (
	"math"

	"repro/internal/simnet"
)

// Default protocol constants. MSS matches Ethernet-era TCP; the window
// default corresponds to typical 2005 PlanetLab kernels with window
// scaling enabled but moderate buffers.
const (
	DefaultMSS       = 1460    // bytes
	DefaultMaxWindow = 1 << 20 // bytes (1 MiB)
	DefaultInitSegs  = 8       // initial congestion window, segments
)

// Params are the TCP-relevant properties of one end-to-end path.
type Params struct {
	RTT  float64 // round-trip time, seconds
	Loss float64 // end-to-end packet loss probability
}

// InitialRate returns the slow-start starting rate in bits/sec: the
// initial window clocked out once per RTT.
func (p Params) InitialRate() float64 {
	if p.RTT <= 0 {
		return math.Inf(1)
	}
	return DefaultInitSegs * DefaultMSS * 8 / p.RTT
}

// WindowCeiling returns the receive/congestion-window rate limit in
// bits/sec: DefaultMaxWindow per RTT.
func (p Params) WindowCeiling() float64 {
	if p.RTT <= 0 {
		return math.Inf(1)
	}
	return DefaultMaxWindow * 8 / p.RTT
}

// LossCeiling returns the Mathis steady-state throughput ceiling
// MSS/(RTT·sqrt(2p/3)) in bits/sec, or +Inf for a loss-free path.
func (p Params) LossCeiling() float64 {
	if p.Loss <= 0 || p.RTT <= 0 {
		return math.Inf(1)
	}
	return DefaultMSS * 8 / (p.RTT * math.Sqrt(2*p.Loss/3))
}

// Ceiling returns the steady-state rate cap: the lesser of the window and
// loss ceilings.
func (p Params) Ceiling() float64 {
	return math.Min(p.WindowCeiling(), p.LossCeiling())
}

// FromLinks derives path parameters from the traversed links: RTT is twice
// the summed one-way latencies plus a fixed 2 ms end-host overhead, and
// loss combines independently per link.
func FromLinks(links []*simnet.Link) Params {
	var oneWay float64
	pass := 1.0
	for _, l := range links {
		oneWay += l.Latency
		pass *= 1 - l.Loss
	}
	return Params{RTT: 2*oneWay + 0.002, Loss: 1 - pass}
}

// rampSubSteps is the number of rate updates per RTT during slow start.
// Real TCP grows its window per ACK, i.e. continuously at timescales below
// one RTT; stepping 2^(1/4) every RTT/4 approximates that exponential
// growth far better than a single doubling per RTT, which would hold short
// probes at the initial rate for whole RTTs and blunt their ability to
// discriminate paths.
const rampSubSteps = 4

// Attach imposes the TCP model on a running simnet flow: the flow's rate
// cap follows the slow-start ramp (exponential doubling per RTT, applied
// in sub-RTT steps) from InitialRate up to Ceiling, then stays at Ceiling.
// Attach must be called right after the flow starts; it schedules its ramp
// on the network's engine and stops by itself when the ramp completes or
// the flow finishes.
func Attach(net *simnet.Network, flow *simnet.Flow, p Params) {
	ceiling := p.Ceiling()
	rate := math.Min(p.InitialRate(), ceiling)
	net.SetRateCap(flow, rate)
	if rate >= ceiling || p.RTT <= 0 {
		net.SetRateCap(flow, ceiling)
		return
	}
	eng := net.Engine()
	interval := p.RTT / rampSubSteps
	factor := math.Pow(2, 1.0/rampSubSteps)
	var step func()
	step = func() {
		if flow.Done() {
			return
		}
		rate *= factor
		if rate >= ceiling {
			net.SetRateCap(flow, ceiling)
			return
		}
		net.SetRateCap(flow, rate)
		eng.After(interval, step)
	}
	eng.After(interval, step)
}

// SlowStartBytes returns approximately how many bytes a connection moves
// before its rate first reaches the steady-state ceiling, assuming no
// bandwidth contention. The paper's probe size x must comfortably exceed
// this for probe throughput to predict full-transfer throughput.
func SlowStartBytes(p Params) int64 {
	ceiling := p.Ceiling()
	if math.IsInf(ceiling, 1) {
		return 0
	}
	rate := math.Min(p.InitialRate(), ceiling)
	interval := p.RTT / rampSubSteps
	factor := math.Pow(2, 1.0/rampSubSteps)
	var bits float64
	for rate < ceiling {
		bits += rate * interval
		rate *= factor
	}
	return int64(bits / 8)
}

// TransferTime returns the time for a transfer of the given size assuming
// the path's ceiling is the only constraint (no cross traffic), including
// the slow-start ramp. Used to validate the fluid implementation.
func TransferTime(p Params, bytes int64) float64 {
	bits := float64(bytes) * 8
	ceiling := p.Ceiling()
	rate := math.Min(p.InitialRate(), ceiling)
	interval := p.RTT / rampSubSteps
	factor := math.Pow(2, 1.0/rampSubSteps)
	t := 0.0
	for rate < ceiling {
		step := rate * interval
		if bits <= step {
			return t + bits/rate
		}
		bits -= step
		t += interval
		rate *= factor
	}
	return t + bits/ceiling
}
