package core

import "context"

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
	est map[pathKey]float64 // EWMA throughput, bits/sec
}

// monitorAlpha is the EWMA weight of a new sample.
const monitorAlpha = 0.3

// pathKey is the full identity of a measured path: the origin server and
// the route to it.
type pathKey struct {
	server string
	via    string
}

// NewMonitor returns an empty monitor.
func NewMonitor() *Monitor {
	return &Monitor{est: make(map[pathKey]float64)}
}

// Observe folds a throughput measurement (bits/sec) for the path to the
// given origin server into the estimate. Non-positive samples are ignored.
func (m *Monitor) Observe(server string, path Path, throughput float64) {
	if throughput <= 0 {
		return
	}
	k := pathKey{server, path.Via}
	if e, ok := m.est[k]; ok {
		throughput = (1-monitorAlpha)*e + monitorAlpha*throughput
	}
	m.est[k] = throughput
}

// Estimate returns the current estimate (bits/sec) for the path to the
// given origin server and whether that path has ever been observed.
func (m *Monitor) Estimate(server string, path Path) (float64, bool) {
	e, ok := m.est[pathKey{server, path.Via}]
	return e, ok
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
		if e, known := m.est[pathKey{server, via}]; known && (!ok || e > bestVal) {
			best, bestVal, ok = Path{Via: via}, e, true
		}
	}
	return best, ok
}

// Refresh probes the direct path and every candidate with cfg's probe
// size of obj (concurrently) and folds the measured throughputs into the
// monitor. This is the background maintenance a monitored client runs
// between transfers. An abandoned refresh simply contributes no samples
// for the probes that did not complete, and cfg's Metrics folds the
// refresh probes as one operation that selected nothing.
func (m *Monitor) Refresh(ctx context.Context, t Transport, obj Object, candidates []string, cfg Config) {
	probes, _ := fetchAll(ctx, t, obj, probePaths(candidates), 0, cfg.probeSize(obj), false)
	fold(cfg.Metrics, nil, probes, nil)
	for _, p := range probes {
		if p.Err == nil {
			m.Observe(obj.Server, p.Path, p.Throughput())
		}
	}
}

// SelectMonitored performs a probe-free transfer: it picks the best path
// from the monitor's table (falling back to the direct path when nothing
// is known), fetches the whole object over it, and feeds the achieved
// throughput back into the monitor. Compare with SelectAndFetch, which
// pays an in-band probe race per transfer for fresh information. The
// single fetch runs under ctx, and cfg's Metrics folds the selection
// and the transfer as one operation.
func SelectMonitored(ctx context.Context, t Transport, obj Object, candidates []string, m *Monitor, cfg Config) Outcome {
	o := Outcome{Object: obj, Candidates: candidates, Start: t.Now()}
	sel, _ := m.Best(obj.Server, candidates)
	o.Selected = sel
	o.ProbeEnd = o.Start // no probing phase

	h := t.StartCtx(ctx, obj, sel, 0, obj.Size)
	t.Wait(h)
	o.Remainder = h.Result()
	fold(cfg.Metrics, &sel, nil, nil, o.Remainder)
	o.Err = o.Remainder.Err
	o.End = o.Remainder.End
	if o.Err == nil {
		m.Observe(obj.Server, sel, o.Remainder.Throughput())
	}
	return o
}
