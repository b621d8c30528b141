package simnet

import (
	"math"

	"repro/internal/randx"
)

// Packet-level fault layer: the pathologies the fluid model abstracts
// away. A real overlay path does not just vary in capacity — it drops,
// reorders, and duplicates packets, and losses arrive in bursts, not as
// independent coin flips. This file grafts those effects onto a Link in
// two complementary ways:
//
//   - Link.Loss is driven continuously, so the TCP model's Mathis
//     ceiling (MSS/(RTT·sqrt(2p/3))) prices the loss into every flow
//     that starts while the link is lossy.
//   - The link's goodput efficiency — the fraction of raw capacity that
//     survives as delivered bytes once losses are retransmitted,
//     reorder-triggered spurious retransmits are paid for, and
//     duplicates are discarded — scales its capacity in the max-min
//     allocation, so flows already in progress slow down too.
//
// Burst loss uses the classic Gilbert–Elliott two-state Markov chain:
// the link alternates between a good state (low loss) and a bad state
// (high loss) with exponential sojourn times, which reproduces the
// loss-run clustering measured on real WAN paths. Everything is seeded
// through randx so a chaos scenario replays bit-identically.

// GEParams configures a Gilbert–Elliott two-state burst-loss chain: the
// link is in the good state with loss LossGood or the bad state with
// loss LossBad, and flips between them with exponential sojourn times of
// mean MeanGood / MeanBad seconds.
type GEParams struct {
	MeanGood float64 // mean sojourn in the good state, seconds
	MeanBad  float64 // mean sojourn in the bad state, seconds
	LossGood float64 // loss probability while good
	LossBad  float64 // loss probability while bad
}

// MeanLoss returns the chain's stationary loss probability: the
// time-weighted average of the two states' loss rates. Useful for
// matching an independent-loss baseline to a bursty one.
func (g GEParams) MeanLoss() float64 {
	if g.MeanGood+g.MeanBad <= 0 {
		return 0
	}
	return (g.MeanGood*g.LossGood + g.MeanBad*g.LossBad) / (g.MeanGood + g.MeanBad)
}

// FaultProfile describes a link's packet-level pathology. All
// probabilities are per packet in [0, 1). The zero profile is a clean
// link.
type FaultProfile struct {
	// Loss is the independent per-packet loss probability, composed
	// with the burst chain's state loss when Burst is set:
	// p_eff = 1 − (1−Loss)·(1−stateLoss).
	Loss float64
	// Reorder is the probability a packet is delivered out of order.
	// Reordered packets trigger spurious fast retransmits, so half of
	// them are charged against goodput.
	Reorder float64
	// Dup is the probability a packet is duplicated in flight.
	// Duplicates consume capacity without contributing goodput.
	Dup float64
	// Burst, when non-nil, overlays a Gilbert–Elliott burst-loss chain.
	Burst *GEParams
}

// efficiency maps the profile (at effective loss p) to the fraction of
// raw link capacity that survives as goodput: lost packets are
// retransmitted (factor 1−p), half the reordered packets cost a
// spurious retransmit, and duplicates dilute the link by 1+Dup.
func (fp FaultProfile) efficiency(p float64) float64 {
	eff := (1 - p) * (1 - 0.5*fp.Reorder) / (1 + fp.Dup)
	if eff < minEfficiency {
		eff = minEfficiency
	}
	if eff > 1 {
		eff = 1
	}
	return eff
}

// minEfficiency keeps a faulted link's goodput strictly positive,
// mirroring the capacity floor: real TCP transfers stall but do not
// halt.
const minEfficiency = 1e-3

// LinkFaults is an active fault process attached to a link by
// InjectFaults. Its burst chain draws from its own RNG substream.
type LinkFaults struct {
	link    *Link
	prof    FaultProfile
	chain   *randx.RNG
	bad     bool
	stopped bool
}

// InjectFaults attaches prof to the link: every interval seconds of
// virtual time the burst chain advances, the link's Loss is set to the
// composed per-packet loss (pricing new flows via the TCP model), and
// the link's goodput efficiency is updated (slowing flows already in
// progress). The returned LinkFaults exposes the current state; Stop
// detaches the process and restores a clean link.
func (l *Link) InjectFaults(prof FaultProfile, interval float64, rng *randx.RNG) *LinkFaults {
	if interval <= 0 {
		panic("simnet: InjectFaults requires interval > 0")
	}
	if rng == nil {
		panic("simnet: InjectFaults requires an RNG")
	}
	checkProb := func(p float64, what string) {
		if p < 0 || p >= 1 || math.IsNaN(p) {
			panic("simnet: fault " + what + " probability must be in [0, 1)")
		}
	}
	checkProb(prof.Loss, "loss")
	checkProb(prof.Reorder, "reorder")
	checkProb(prof.Dup, "dup")
	if g := prof.Burst; g != nil {
		checkProb(g.LossGood, "burst good-state loss")
		checkProb(g.LossBad, "burst bad-state loss")
		if g.MeanGood <= 0 || g.MeanBad <= 0 {
			panic("simnet: burst sojourn means must be > 0")
		}
	}
	f := &LinkFaults{
		link:  l,
		prof:  prof,
		chain: rng.Fork("simnet-fault-chain/" + l.Name),
	}
	var tick func()
	tick = func() {
		if f.stopped {
			return
		}
		f.stepChain(interval)
		f.apply()
		l.net.eng.After(interval, tick)
	}
	f.apply()
	l.net.eng.After(interval, tick)
	return f
}

// stepChain advances the Gilbert–Elliott state across dt seconds: with
// exponential sojourn times the flip probability over dt is
// 1 − exp(−dt/mean).
func (f *LinkFaults) stepChain(dt float64) {
	g := f.prof.Burst
	if g == nil {
		return
	}
	mean := g.MeanGood
	if f.bad {
		mean = g.MeanBad
	}
	if f.chain.Float64() < 1-math.Exp(-dt/mean) {
		f.bad = !f.bad
	}
}

// apply pushes the current effective loss and goodput efficiency onto
// the link.
func (f *LinkFaults) apply() {
	p := f.EffectiveLoss()
	f.link.Loss = p
	f.link.setEfficiency(f.prof.efficiency(p))
}

// EffectiveLoss returns the composed per-packet loss probability at the
// chain's current state.
func (f *LinkFaults) EffectiveLoss() float64 {
	p := f.prof.Loss
	if g := f.prof.Burst; g != nil {
		state := g.LossGood
		if f.bad {
			state = g.LossBad
		}
		p = 1 - (1-p)*(1-state)
	}
	return p
}

// Stop detaches the fault process and restores a clean link (zero loss,
// full efficiency) at the next reallocation.
func (f *LinkFaults) Stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	f.link.Loss = 0
	f.link.setEfficiency(1)
}
