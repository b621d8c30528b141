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
// snapshot the same way LISTH's k does (healthiest-k, then down
// entries); incremental responses are always complete and ignore k,
// since a truncated delta would silently corrupt the client's mirror.
func (s *Server) ListDelta(since uint64, k int) Delta {
	s.init()
	// Snapshot the epoch before visiting shards: a mutation stamps its
	// epoch — on the entry and in the shard's change log — while holding
	// the owning shard's lock, so any change at or below this snapshot is
	// either already published or will be published before our per-shard
	// lock acquisition returns. That is why the log is read under the
	// lock and why there is no lock-free since == cur exit.
	cur := s.epoch.Load()
	if s.needsFull(since, cur) {
		return s.fullDelta(since, cur, k)
	}
	d := Delta{Since: since, Epoch: cur}
	entry := func(e Entry) {
		if e.ChangeEpoch > since {
			d.Entries = append(d.Entries, DeltaEntry{Entry: e})
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
		return s.fullDelta(since, cur, k)
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

// fullDelta is the LISTD answer when needsFull: the ranked snapshot.
func (s *Server) fullDelta(since, cur uint64, k int) Delta {
	ranked := s.rankedAll(k)
	d := Delta{Since: since, Epoch: cur, Full: true, Entries: make([]DeltaEntry, len(ranked))}
	for i, e := range ranked {
		d.Entries[i].Entry = e
	}
	return d
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
// them to the mirror. It is safe for concurrent use with Top.
func (r *RankedSet) Refresh(ctx context.Context, c *Client) error {
	r.mu.Lock()
	since := r.epoch
	r.mu.Unlock()
	d, err := c.ListDelta(ctx, since, 0)
	if err != nil {
		return err
	}
	r.Apply(d)
	return nil
}

// Apply folds one delta into the mirror (exported for tests and for
// callers that transport deltas themselves).
func (r *RankedSet) Apply(d Delta) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.entries == nil {
		r.entries = make(map[string]Entry)
	}
	if d.Full {
		clear(r.entries)
		r.fulls++
	}
	for _, de := range d.Entries {
		if de.Deleted {
			delete(r.entries, de.Name)
		} else {
			r.entries[de.Name] = de.Entry
		}
	}
	r.changes += int64(len(d.Entries))
	r.refreshes++
	r.epoch = d.Epoch
}

// Epoch returns the epoch the mirror is synced to.
func (r *RankedSet) Epoch() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.epoch
}

// Top returns up to k live entries ranked healthiest-first from the
// mirror (k <= 0 means all), mirroring Server.ListRanked.
func (r *RankedSet) Top(k int) []Entry {
	r.mu.Lock()
	out := make([]Entry, 0, len(r.entries))
	for _, e := range r.entries {
		if !e.Down {
			out = append(out, e)
		}
	}
	r.mu.Unlock()
	sortRanked(out)
	return truncate(out, k)
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
