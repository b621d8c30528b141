package core

import (
	"repro/internal/obs"
	"repro/internal/randx"
)

// Policy chooses the candidate intermediates offered to the probe race for
// one transfer. The paper evaluates a static single intermediate
// (Section 3), a uniform random subset of size k (Section 4), and proposes
// utilization-weighted subsets as future work (Section 6); all three are
// implemented here.
type Policy interface {
	// Candidates returns the intermediates to probe for the next
	// transfer, drawn from full.
	Candidates(full []string, r *randx.RNG) []string
}

// StaticPolicy always proposes the same single intermediate, mirroring the
// paper's Section 3 deployment where one good indirect path was chosen a
// priori.
type StaticPolicy struct {
	Intermediate string
}

// Candidates returns the fixed intermediate (regardless of full).
func (p StaticPolicy) Candidates(full []string, _ *randx.RNG) []string {
	return []string{p.Intermediate}
}

// UniformRandomPolicy proposes a uniform random subset of K intermediates
// per transfer (the paper's Section 4 "random set"). K values at or above
// len(full) yield the full set.
type UniformRandomPolicy struct {
	K int
}

// Candidates draws K distinct intermediates uniformly at random.
func (p UniformRandomPolicy) Candidates(full []string, r *randx.RNG) []string {
	k := p.K
	if k >= len(full) {
		out := make([]string, len(full))
		copy(out, full)
		return out
	}
	if k <= 0 {
		return nil
	}
	perm := r.Perm(len(full))
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = full[perm[i]]
	}
	return out
}

// weightFloor is added to every WeightedRandomPolicy weight so that
// unexplored nodes stay discoverable.
const weightFloor = 0.05

// WeightedRandomPolicy proposes K intermediates sampled without
// replacement with probability proportional to (utilization +
// weightFloor), reading utilization from the path tally of Metrics — the
// collector the engine folds into as its Config.Metrics. This is the
// paper's Section 6 proposal: "if a client uses the utilization data to
// weight the likelihood of a node appearing in the random set, the better
// nodes will be chosen more often". A nil Metrics draws uniformly.
type WeightedRandomPolicy struct {
	K       int
	Metrics *obs.Metrics
}

// Candidates draws K distinct intermediates, weighted by utilization.
func (p WeightedRandomPolicy) Candidates(full []string, r *randx.RNG) []string {
	k := p.K
	if k >= len(full) {
		out := make([]string, len(full))
		copy(out, full)
		return out
	}
	if k <= 0 {
		return nil
	}
	type cand struct {
		name string
		w    float64
	}
	pool := make([]cand, len(full))
	total := 0.0
	for i, name := range full {
		w := weightFloor
		if p.Metrics != nil {
			w += p.Metrics.Path(name).Utilization
		}
		pool[i] = cand{name, w}
		total += w
	}
	out := make([]string, 0, k)
	for len(out) < k {
		x := r.Float64() * total
		idx := len(pool) - 1
		for i := range pool {
			if x < pool[i].w {
				idx = i
				break
			}
			x -= pool[i].w
		}
		out = append(out, pool[idx].name)
		total -= pool[idx].w
		pool[idx] = pool[len(pool)-1]
		pool = pool[:len(pool)-1]
	}
	return out
}
