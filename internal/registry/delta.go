package registry

import (
	"context"
	"sync"
)

// Epoch-versioned delta sync. Every change a client can see claims the
// next value of a registry-wide epoch counter and stamps the touched
// entry; LISTD replays only the entries whose ChangeEpoch passed the
// client's last-synced epoch, plus tombstones for deletes, so a steady-state
// client re-pulls a handful of lines (often zero — pure heartbeat
// refreshes don't move ChangeEpoch) instead of the full 100k-entry
// list. Clients hold the mirror in a RankedSet and rank locally. The
// server pays for a poll in proportion to what changed: it locks each
// shard, skips it when its change watermark has not passed the client's
// epoch, and otherwise replays the shard's change log past that epoch.
// Only a shard in which TTL expiry is due, or whose log no longer
// reaches back to the client's epoch, is walked whole.

// DeltaEntry is one change in a delta: an upserted entry, or a delete
// (Deleted set, only Name meaningful).
type DeltaEntry struct {
	Entry
	Deleted bool
}

// Delta is one LISTD response: the changes since Since, and the epoch
// the client should present next time. When Full is set the server
// could not serve an incremental answer (first sync, restarted server,
// or Since older than the tombstone horizon) and Entries carries the
// complete table snapshot instead (live and down, no deletes).
type Delta struct {
	Since   uint64
	Epoch   uint64
	Full    bool
	Entries []DeltaEntry
}

// ListDelta returns the changes since the given epoch. k bounds a full
// snapshot to the ranked top k (healthiest-k, then down entries);
// incremental responses are always complete and ignore k, since a
// truncated delta would silently corrupt the client's mirror.
// A full snapshot without k comes in shard order, not ranked, as the
// wire streams it: a mirror ranks locally.
func (s *Server) ListDelta(since uint64, k int) Delta {
	d := s.changesSince(since)
	if d.Full {
		if k <= 0 {
			d.Entries = make([]DeltaEntry, 0, s.size())
		}
		s.fullDelta(k, func(es []Entry) {
			for i := range es {
				d.Entries = append(d.Entries, DeltaEntry{Entry: es[i]})
			}
		})
	}
	return d
}

// changesSince answers a delta from since incrementally: the changes
// past since, tagged with the epoch read before the scan. When that
// cannot be done it returns Full set and no entries, and the caller
// adds the snapshot (fullDelta).
func (s *Server) changesSince(since uint64) Delta {
	s.init()
	// Snapshot the epoch before visiting shards: a mutation stamps its
	// epoch — on the entry and in the shard's change log — while holding
	// the owning shard's lock, so any change at or below this snapshot is
	// either already published or will be published before our per-shard
	// lock acquisition returns. That is why the log is read under the
	// lock and why there is no lock-free since == cur exit.
	cur := s.epoch.Load()
	full := Delta{Since: since, Epoch: cur, Full: true}
	if s.needsFull(since, cur) {
		return full
	}
	d := Delta{Since: since, Epoch: cur}
	entry := func(e *Entry) {
		if e.ChangeEpoch > since {
			d.Entries = append(d.Entries, DeltaEntry{Entry: *e})
		}
	}
	tomb := func(name string, t tombstone) {
		if t.Epoch > since {
			d.Entries = append(d.Entries, DeltaEntry{Entry: Entry{Name: name}, Deleted: true})
		}
	}
	s.scan(func(sh *shard) bool { return sh.replay(since, entry, tomb) }, entry, tomb)
	// Expiry applied by the scan may itself have pruned a tombstone the
	// client still needed (raising the floor past since); an incremental
	// answer would then silently drop a delete.
	if s.needsFull(since, cur) {
		return full
	}
	// It may also have stamped epochs past the snapshot (down-marks,
	// tombstones). Those entries are included above (their epoch > since)
	// but the client must not advance past changes other shards stamped
	// concurrently, so the returned epoch stays the pre-scan snapshot;
	// anything newer arrives with the next poll.
	return d
}

// needsFull reports whether a delta from since cannot be served
// incrementally at epoch cur: a cursor outside this server's epoch
// space (a first sync's 0, a cursor from another or a restarted server)
// or one older than the tombstone horizon.
func (s *Server) needsFull(since, cur uint64) bool {
	return since > cur || since < s.deltaFloor.Load()
}

// fullDelta passes the entries of a full snapshot to emit. With k > 0
// they are the ranked top k (rankedAll), in one call. Otherwise they are the
// whole table, live and down, one shard at a time in shard order
// (eachShard): nothing the size of the table is built or sorted, and
// the wire writes each shard while no lock is held.
func (s *Server) fullDelta(k int, emit func([]Entry)) {
	if k > 0 {
		emit(s.rankedAll(k))
		return
	}
	s.eachShard(emit)
}

// RankedSet is the client-side cached view of a registry: a full pull
// once, then LISTD deltas keyed by the last-synced epoch. Long-running
// clients (relayd picking upstreams, fetch loops, the load harness)
// call Refresh on their poll interval — when nothing material changed
// the response is a single EPOCH line — and read Top for the ranked
// candidate set the paper's top-K probing wants.
type RankedSet struct {
	mu      sync.Mutex
	entries map[string]Entry
	epoch   uint64

	refreshes int64
	fulls     int64
	changes   int64
}

// NewRankedSet returns an empty set; the first Refresh performs a full
// sync.
func NewRankedSet() *RankedSet {
	return &RankedSet{entries: make(map[string]Entry)}
}

// Refresh pulls the changes since the last call through c and applies
// them to the mirror. It is safe for concurrent use with Top. A full
// answer replaces the mirror only once it is complete: its lines are
// held until the terminator and then parsed into a fresh map sized to
// them, so a failed or cut sync leaves the mirror and its epoch as they
// were, and an attempt the client retries starts over.
func (r *RankedSet) Refresh(ctx context.Context, c *Client) error {
	r.mu.Lock()
	since := r.epoch
	r.mu.Unlock()
	var (
		d     Delta
		lines []string // of a full answer, parsed once it is complete
	)
	err := c.listDelta(ctx, since, 0, func(epoch uint64, full bool) {
		d = Delta{Since: since, Epoch: epoch, Full: full, Entries: d.Entries[:0]}
		lines = lines[:0]
	}, func(line string) error {
		if d.Full {
			lines = append(lines, line)
			return nil
		}
		de, err := parseDeltaLine(line)
		if err == nil {
			d.Entries = append(d.Entries, de)
		}
		return err
	})
	if err != nil {
		return err
	}
	if !d.Full {
		r.Apply(d)
		return nil
	}
	fresh := make(map[string]Entry, len(lines))
	for _, line := range lines {
		de, err := parseDeltaLine(line)
		if err != nil {
			return err
		}
		applyLine(fresh, &de)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.entries = fresh
	r.fulls++
	r.changes += int64(len(lines))
	r.refreshes++
	r.epoch = d.Epoch
	return nil
}

// Apply folds one delta into the mirror (exported for tests and for
// callers that transport deltas themselves). A full delta replaces the
// mirror with a map sized to it.
func (r *RankedSet) Apply(d Delta) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if d.Full || r.entries == nil {
		r.entries = make(map[string]Entry, len(d.Entries))
	}
	if d.Full {
		r.fulls++
	}
	for i := range d.Entries {
		applyLine(r.entries, &d.Entries[i])
	}
	r.changes += int64(len(d.Entries))
	r.refreshes++
	r.epoch = d.Epoch
}

// applyLine folds one delta line into a mirror's map.
func applyLine(m map[string]Entry, de *DeltaEntry) {
	if de.Deleted {
		delete(m, de.Name)
	} else {
		m[de.Name] = de.Entry
	}
}

// Epoch returns the epoch the mirror is synced to.
func (r *RankedSet) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Top returns up to k live entries ranked healthiest-first from the
// mirror (k <= 0 means all), mirroring Server.ListRanked. With k > 0
// it keeps only the k that rank first while it reads the mirror (topK),
// so a top ten of a large mirror sorts ten entries.
func (r *RankedSet) Top(k int) []Entry {
	r.mu.Lock()
	t := topK{k: k}
	if k > 0 {
		t.h = make([]Entry, 0, min(k, len(r.entries)))
	} else {
		t.h = make([]Entry, 0, len(r.entries))
	}
	for _, e := range r.entries {
		if !e.Down {
			t.offer(&e)
		}
	}
	r.mu.Unlock()
	sortRanked(t.h)
	return t.h
}

// All returns every mirrored entry (live and down), ranked.
func (r *RankedSet) All() []Entry {
	r.mu.Lock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		out = append(out, e)
	}
	r.mu.Unlock()
	sortRanked(out)
	return out
}

// RankedSetStats reports the mirror's sync economics: how many
// refreshes ran, how many fell back to a full snapshot, and how many
// change lines arrived in total.
type RankedSetStats struct {
	Refreshes int64  `json:"refreshes"`
	Fulls     int64  `json:"fulls"`
	Changes   int64  `json:"changes"`
	Epoch     uint64 `json:"epoch"`
	Entries   int    `json:"entries"`
}

// Stats snapshots the mirror's counters.
func (r *RankedSet) Stats() RankedSetStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	return RankedSetStats{
		Refreshes: r.refreshes, Fulls: r.fulls, Changes: r.changes,
		Epoch: r.epoch, Entries: len(r.entries),
	}
}
