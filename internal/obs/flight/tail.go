// The store's one retention rule, the tail rule: keep the traces worth
// keeping, not the rows that arrived last. A ring that overwrites
// blindly loses, under load, exactly the interesting operations — the
// errors, the slow tail the paper's analysis is about — by the time
// anyone looks. So a trace is forced when one of its local roots errored
// or fell in the slowest decile of recent root durations, and a full
// ring overwrites the oldest row not forced. Forced rows hold at most
// half the ring, beyond which the oldest of them is released, so the
// newest half is always recent traffic. A row without a trace is a
// trace of its own.

package flight

import (
	"sort"

	"repro/internal/obs"
)

// tailRootPhases are the ops that act as a process-local trace root
// even when they carry a cross-process parent: the relay's "forward"
// and origin's "serve" rows are children of the client's trace, but
// within their own process they are the record whose end completes the
// local view of the operation. "select" is the client-side root and
// normally also parentless.
var tailRootPhases = map[string]bool{"select": true, "forward": true, "serve": true}

// isTailRoot reports whether a row completes its trace's local view.
func isTailRoot(ev *Event) bool { return ev.Parent == "" || tailRootPhases[ev.Op] }

// tail is the rule's state, guarded by the recorder's mutex.
type tail struct {
	// window is how many recent root durations feed the slow-decile
	// estimate; minSlow how many must be on record before the slow rule
	// fires (an empty estimate would force everything).
	window, minSlow int

	durs  []int64 // recent root durations, ring of window
	durAt int
	// slowThresh caches the window's p90 so the per-root decision is a
	// compare, not a sort; slowStale counts samples since the last
	// recompute (refreshed every window/8 — a sliding decile moves far
	// slower than the request rate).
	slowThresh int64
	slowStale  int

	rows int // forced rows in the ring
}

// decide reports whether a row about to be stored forces its trace: it
// is a local root that errored or ran in the slowest decile.
func (t *tail) decide(ev *Event, elapsed int64) bool {
	if !isTailRoot(ev) {
		return false
	}
	slow := t.isSlow(elapsed)
	t.recordDuration(elapsed)
	return ev.Class != obs.ClassOK.String() || slow
}

// store puts a finished row into the ring under the rule: into the
// oldest row not forced (a slot never written, fin 0, is oldest of all),
// else the oldest, which only a one-row ring ever needs. The row is
// forced when its trace already holds a forced row, or when it forces
// its trace itself — and then the trace's rows already stored are forced
// too. Called with r.mu held.
func (r *Recorder) store(ev Event, elapsed int64) {
	slot, joins := -1, false
	for i := range r.ring {
		rw := &r.ring[i]
		joins = joins || rw.forced && ev.Trace != "" && rw.ev.Trace == ev.Trace
		if !rw.forced && (slot < 0 || rw.fin < r.ring[slot].fin) {
			slot = i
		}
	}
	if slot < 0 {
		slot = r.oldest()
	}
	forces := r.tail.decide(&ev, elapsed)
	if forces && !joins && ev.Trace != "" {
		for i := range r.ring {
			if rw := &r.ring[i]; rw.fin != 0 && rw.ev.Trace == ev.Trace {
				r.force(rw)
			}
		}
	}
	if old := &r.ring[slot]; old.fin != 0 {
		r.dropped++
		if old.forced {
			r.tail.rows--
		}
	}
	r.ring[slot] = row{ev: ev, fin: r.fin}
	if forces || joins {
		r.force(&r.ring[slot])
	}
}

// force marks a stored row kept. Forced rows hold at most half the ring
// (rounded up), so the newest rows stay whatever the mix of errors and
// slow roots: at that cap the oldest forced row is released in its place
// and from then on ages out like any other.
func (r *Recorder) force(rw *row) {
	if rw.forced {
		return
	}
	if r.tail.rows < forcedCap(len(r.ring)) {
		r.tail.rows++
	} else {
		r.ring[r.oldest()].forced = false
	}
	rw.forced = true
}

// forcedCap is how many rows of a ring of n the rule may keep.
func forcedCap(n int) int { return (n + 1) / 2 }

// oldest returns the slot of the oldest forced row.
func (r *Recorder) oldest() int {
	at := -1
	for i := range r.ring {
		if r.ring[i].forced && (at < 0 || r.ring[i].fin < r.ring[at].fin) {
			at = i
		}
	}
	return at
}

// recordDuration feeds one root duration into the slow-decile window.
func (t *tail) recordDuration(d int64) {
	t.slowStale++
	if len(t.durs) < t.window {
		t.durs = append(t.durs, d)
		return
	}
	t.durs[t.durAt] = d
	t.durAt = (t.durAt + 1) % len(t.durs)
}

// isSlow reports whether d falls in the slowest decile of the recent
// root durations on record (false until minSlow are in). The decile
// threshold is cached and refreshed every window/8 samples: sorting the
// whole window per root would put an O(n log n) pass — and its
// allocation — on every request's critical section for a quantile that
// barely moves between adjacent samples.
func (t *tail) isSlow(d int64) bool {
	if len(t.durs) < t.minSlow {
		return false
	}
	refreshEvery := t.window / 8
	if refreshEvery < 1 {
		refreshEvery = 1
	}
	if t.slowStale >= refreshEvery || t.slowThresh == 0 {
		sorted := make([]int64, len(t.durs))
		copy(sorted, t.durs)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
		t.slowThresh = sorted[(len(sorted)*9)/10]
		t.slowStale = 0
	}
	return d >= t.slowThresh
}
