package randx

import "math"

// LogNormal is the log-normal distribution: exp(N(Mu, Sigma²)).
// Throughput samples in the simulator are log-normal, matching the heavy
// right tail of wide-area TCP throughput measurements.
type LogNormal struct {
	Mu, Sigma float64
}

// Sample draws a log-normal variate.
func (l LogNormal) Sample(r *RNG) float64 { return math.Exp(l.Mu + l.Sigma*r.NormFloat64()) }
