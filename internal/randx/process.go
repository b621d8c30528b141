package randx

import "math"

// Process is a discrete-time stochastic process: each call to Step advances
// the process by dt seconds and returns the new value. Processes drive
// time-varying link conditions (cross-traffic load, capacity modulation) in
// the network simulator.
type Process interface {
	// Step advances the process by dt and returns the new value.
	Step(r *RNG, dt float64) float64
	// Value returns the current value without advancing.
	Value() float64
}

// OU is a mean-reverting Ornstein–Uhlenbeck process evolved in log space,
// so its value is always positive and fluctuates multiplicatively around
// exp(LogMean). Wide-area available-bandwidth traces are well described by
// such a process: bursts decay back toward a long-run level at a rate set
// by Theta.
//
// Sigma is the STATIONARY standard deviation of log(value) — the
// long-run multiplicative spread — not the instantaneous SDE volatility.
// Sigma = 0.4 means the process spends most of its time within a factor
// of about e^±0.4 of the mean regardless of Theta, which is the natural
// way to calibrate "how variable is this path".
type OU struct {
	LogMean float64 // long-run mean of log(value)
	Theta   float64 // mean-reversion rate (1/seconds)
	Sigma   float64 // stationary standard deviation of log(value)

	x float64 // current log(value)
}

// NewOU returns an OU process whose value reverts to mean with reversion
// rate theta and stationary log-spread sigma, starting at the mean.
func NewOU(mean, theta, sigma float64) *OU {
	if mean <= 0 {
		panic("randx: NewOU requires mean > 0")
	}
	lm := math.Log(mean)
	return &OU{LogMean: lm, Theta: theta, Sigma: sigma, x: lm}
}

// Step advances the process using the exact discretization of the OU SDE,
// scaled so the stationary log-sd equals Sigma.
func (p *OU) Step(r *RNG, dt float64) float64 {
	if dt <= 0 {
		return math.Exp(p.x)
	}
	e := math.Exp(-p.Theta * dt)
	std := p.Sigma * math.Sqrt(1-e*e)
	p.x = p.LogMean + (p.x-p.LogMean)*e + std*r.NormFloat64()
	return math.Exp(p.x)
}

// Value returns the current value of the process.
func (p *OU) Value() float64 { return math.Exp(p.x) }

// SetValue forces the current value, e.g. to start a path in a congested
// state.
func (p *OU) SetValue(v float64) {
	if v <= 0 {
		panic("randx: OU value must be > 0")
	}
	p.x = math.Log(v)
}

// Regime is a two-state Markov regime-switching process: the value is
// Normal[i] while in regime i, and the process flips between regimes with
// exponential holding times. It models the abrupt load shifts ("jumps")
// that the paper observes on direct paths: long quiet periods punctuated
// by sustained congestion episodes.
type Regime struct {
	Level [2]float64 // multiplier in each regime
	Hold  [2]float64 // mean holding time (seconds) in each regime

	state     int
	untilFlip float64
}

// NewRegime builds a regime process starting in state 0. levelQuiet and
// levelBusy are the multipliers in the two regimes; holdQuiet and holdBusy
// are the mean sojourn times.
func NewRegime(levelQuiet, levelBusy, holdQuiet, holdBusy float64) *Regime {
	return &Regime{
		Level: [2]float64{levelQuiet, levelBusy},
		Hold:  [2]float64{holdQuiet, holdBusy},
	}
}

// Step advances the regime clock by dt, flipping states as holding times
// expire, and returns the current level.
func (p *Regime) Step(r *RNG, dt float64) float64 {
	if p.untilFlip == 0 {
		p.untilFlip = r.ExpFloat64() * p.Hold[p.state]
	}
	for dt > 0 {
		if dt < p.untilFlip {
			p.untilFlip -= dt
			break
		}
		dt -= p.untilFlip
		p.state = 1 - p.state
		p.untilFlip = r.ExpFloat64() * p.Hold[p.state]
	}
	return p.Level[p.state]
}

// Value returns the current regime level.
func (p *Regime) Value() float64 { return p.Level[p.state] }

// State returns the current regime index (0 or 1).
func (p *Regime) State() int { return p.state }

// Product composes processes multiplicatively; its value is the product of
// the component values. Typical composition: OU base load × regime jumps.
type Product struct {
	Parts []Process
}

// Step advances every component by dt and returns the product of the new
// values.
func (p *Product) Step(r *RNG, dt float64) float64 {
	v := 1.0
	for _, part := range p.Parts {
		v *= part.Step(r, dt)
	}
	return v
}

// Value returns the product of the component values.
func (p *Product) Value() float64 {
	v := 1.0
	for _, part := range p.Parts {
		v *= part.Value()
	}
	return v
}
