package core

import (
	"context"
	"sort"
)

// Monitor maintains exponentially-weighted throughput estimates per path
// from any observations the client makes (probes, transfers, background
// refreshes). It enables RON-style probe-free selection — the related
// work the paper builds on keeps exactly this kind of path table — at the
// cost of acting on stale information when conditions shift between
// refreshes.
//
// Estimates are keyed by full path identity — origin server plus route —
// because a route's throughput is a property of the whole path: the
// direct path to one origin says nothing about the direct path to
// another, and one relay may shortcut the route to one origin while
// detouring the route to a second.
type Monitor struct {
	// Alpha is the EWMA weight of a new sample (default 0.3).
	Alpha float64

	est map[pathKey]ewma
}

// pathKey is the full identity of a measured path: the origin server and
// the route to it.
type pathKey struct {
	server string
	via    string
}

type ewma struct {
	value float64
	n     int64
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{est: make(map[pathKey]ewma)}
}

func (m *Monitor) alpha() float64 {
	if m.Alpha > 0 && m.Alpha <= 1 {
		return m.Alpha
	}
	return 0.3
}

// Observe folds a throughput measurement (bits/sec) for the path to the
// given origin server into the estimate. Non-positive samples are ignored.
func (m *Monitor) Observe(server string, path Path, throughput float64) {
	if throughput <= 0 {
		return
	}
	k := pathKey{server, path.Via}
	e, ok := m.est[k]
	if !ok {
		m.est[k] = ewma{value: throughput, n: 1}
		return
	}
	a := m.alpha()
	e.value = (1-a)*e.value + a*throughput
	e.n++
	m.est[k] = e
}

// Estimate returns the current estimate (bits/sec) for the path to the
// given origin server and whether that path has ever been observed.
func (m *Monitor) Estimate(server string, path Path) (float64, bool) {
	e, ok := m.est[pathKey{server, path.Via}]
	return e.value, ok
}

// Samples returns how many observations back a path's estimate.
func (m *Monitor) Samples(server string, path Path) int64 {
	return m.est[pathKey{server, path.Via}].n
}

// Unknown returns the candidates (from the given set) that have no
// estimate yet for the given origin server — the ones a cold-start
// refresh must probe.
func (m *Monitor) Unknown(server string, candidates []string) []string {
	var out []string
	for _, c := range candidates {
		if _, ok := m.est[pathKey{server, c}]; !ok {
			out = append(out, c)
		}
	}
	return out
}

// Best returns the path with the highest estimate among the direct path
// and the candidates, toward the given origin server. Paths without
// estimates are skipped; if nothing has an estimate, the direct path is
// returned (ok=false).
func (m *Monitor) Best(server string, candidates []string) (best Path, ok bool) {
	bestVal := 0.0
	best = Path{Via: Direct}
	paths := append([]string{Direct}, candidates...)
	for _, via := range paths {
		if e, known := m.est[pathKey{server, via}]; known && (!ok || e.value > bestVal) {
			best, bestVal, ok = Path{Via: via}, e.value, true
		}
	}
	return best, ok
}

// Ranked returns all known paths among direct + candidates toward the
// given origin server, best first.
func (m *Monitor) Ranked(server string, candidates []string) []Path {
	type pe struct {
		p Path
		v float64
	}
	var known []pe
	for _, via := range append([]string{Direct}, candidates...) {
		if e, ok := m.est[pathKey{server, via}]; ok {
			known = append(known, pe{Path{Via: via}, e.value})
		}
	}
	sort.Slice(known, func(i, j int) bool {
		if known[i].v != known[j].v {
			return known[i].v > known[j].v
		}
		return known[i].p.Via < known[j].p.Via
	})
	out := make([]Path, len(known))
	for i, k := range known {
		out[i] = k.p
	}
	return out
}

// Refresh probes the direct path and every candidate with cfg's probe
// size of obj (concurrently) and folds the measured throughputs into the
// monitor. This is the background maintenance a monitored client runs
// between transfers. An abandoned refresh simply contributes no samples
// for the probes that did not complete, and cfg's observer sees the
// refresh probes like any others.
func (m *Monitor) Refresh(ctx context.Context, t Transport, obj Object, candidates []string, cfg Config) {
	for _, p := range Probe(ctx, t, obj, candidates, cfg) {
		if p.Err == nil {
			m.Observe(obj.Server, p.Path, p.Throughput())
		}
	}
}

// MonitoredRule is the Selection.Rule value emitted for probe-free picks
// from a Monitor's table.
const MonitoredRule = "monitored"

// SelectMonitored performs a probe-free transfer: it picks the best path
// from the monitor's table (falling back to the direct path when nothing
// is known), fetches the whole object over it, and feeds the achieved
// throughput back into the monitor. Compare with SelectAndFetch, which
// pays an in-band probe race per transfer for fresh information. The
// single fetch runs under ctx, and cfg's observer sees the selection
// (rule "monitored") and the transfer.
func SelectMonitored(ctx context.Context, t Transport, obj Object, candidates []string, m *Monitor, cfg Config) Outcome {
	o := Outcome{Object: obj, Candidates: candidates, Start: t.Now()}
	sel, _ := m.Best(obj.Server, candidates)
	o.Selected = sel
	o.ProbeEnd = o.Start // no probing phase
	emitSelection(cfg.Observer, t, obj, sel, MonitoredRule, len(candidates)+1, 0)

	emitTransferStart(cfg.Observer, t, obj, sel, 0, obj.Size, false)
	h := t.StartCtx(ctx, obj, sel, 0, obj.Size)
	t.Wait(h)
	o.Remainder = h.Result()
	emitTransferEnd(cfg.Observer, obj, o.Remainder, false)
	o.Err = o.Remainder.Err
	o.End = o.Remainder.End
	if o.Err == nil {
		m.Observe(obj.Server, sel, o.Remainder.Throughput())
	}
	return o
}
