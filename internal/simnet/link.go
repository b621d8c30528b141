package simnet

import "repro/internal/randx"

// Link is a unidirectional network link with a time-varying capacity
// available to foreground (simulated) flows. Cross traffic is modelled by
// driving the capacity with a stochastic process rather than simulating
// competing packets: what matters to a TCP transfer is the bandwidth it
// can actually obtain.
type Link struct {
	Name string

	// Latency is the one-way propagation delay in seconds. It does not
	// delay fluid progress directly; the TCP model folds path RTT into the
	// per-flow rate cap.
	Latency float64

	// Loss is the packet loss probability on this link, consumed by the
	// TCP model's steady-state ceiling.
	Loss float64

	capacity float64 // current available capacity, bits/sec
	floor    float64 // capacity never drops below this, keeping flows live

	// efficiency is the fraction of capacity surviving as goodput under
	// packet-level faults (1 on a clean link); see InjectFaults. The
	// max-min allocation works on capacity × efficiency.
	efficiency float64

	flows map[*Flow]struct{}
	net   *Network
}

// Capacity returns the link's current available capacity in bits/sec.
func (l *Link) Capacity() float64 { return l.capacity }

// EffectiveCapacity returns the goodput-bearing capacity the fair-share
// allocation divides among flows: capacity scaled by the fault layer's
// efficiency, never below the floor.
func (l *Link) EffectiveCapacity() float64 {
	c := l.capacity * l.efficiency
	if c < l.floor {
		return l.floor
	}
	return c
}

// setEfficiency updates the goodput fraction and reallocates. Values are
// clamped to (0, 1].
func (l *Link) setEfficiency(eff float64) {
	if eff <= 0 {
		eff = minEfficiency
	}
	if eff > 1 {
		eff = 1
	}
	if eff == l.efficiency {
		return
	}
	l.efficiency = eff
	l.net.reallocate()
}

// SetCapacity updates the link's available capacity and triggers a
// network-wide rate reallocation. Values below the floor are raised to it.
func (l *Link) SetCapacity(bps float64) {
	if bps < l.floor {
		bps = l.floor
	}
	if bps == l.capacity {
		return
	}
	l.capacity = bps
	l.net.reallocate()
}

// Drive attaches a stochastic capacity process to the link: every interval
// seconds of virtual time the process advances and the link capacity is
// set to scale × process value. The driver runs until the engine stops
// being stepped; it owns its RNG.
//
// Drive returns a stop function that detaches the driver.
func (l *Link) Drive(proc randx.Process, interval, scale float64, rng *randx.RNG) (stop func()) {
	if interval <= 0 {
		panic("simnet: Drive requires interval > 0")
	}
	stopped := false
	var tick func()
	tick = func() {
		if stopped {
			return
		}
		l.SetCapacity(scale * proc.Step(rng, interval))
		l.net.eng.After(interval, tick)
	}
	// Apply the process's current value immediately so the link starts in
	// a consistent state, then step on each tick.
	l.SetCapacity(scale * proc.Value())
	l.net.eng.After(interval, tick)
	return func() { stopped = true }
}
