package registry

import (
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"
)

// The table is striped into shards keyed by FNV-1a hash of the relay
// name. A REGISTER touches exactly one shard, so a heartbeat storm from
// 100k relays spreads its lock traffic across NumShards mutexes instead
// of serializing on one; table scans (a full LISTD) visit shards one
// at a time and never stall writers on more than 1/NumShards of the
// table. Epochs are claimed from the server-wide counter while
// holding the owning shard's lock — see Server.epoch for why readers
// cannot miss a stamped change. Each shard also logs its stamps (the
// newest is its watermark) and remembers the earliest time TTL expiry
// could touch it, so a delta poll replays only what changed past its
// cursor, skips the shards that cursor has already passed, and no scan
// applies expiry before something in the shard can have lapsed.

// tombstoneKeep is how long a delete is remembered so delta clients
// that sync within it see the removal; pruning a tombstone raises the
// server's delta floor, forcing older clients onto a full snapshot.
const tombstoneKeep = 10 * time.Minute

// tombstone records a deleted entry: the epoch of the delete (for LISTD
// filtering) and how long to remember it.
type tombstone struct {
	Epoch uint64
	Keep  time.Time
}

// never is the due time of a shard in which nothing can lapse.
var never = time.Unix(1<<62, 0)

// logCap bounds a shard's change log. A cursor that has fallen further
// behind than the log reaches is answered by walking the shard instead.
const logCap = 1024

// change is one change-log record: a material stamp and the name it was
// stamped on.
type change struct {
	epoch uint64
	name  string
}

// shard is one table partition. All fields are guarded by mu.
type shard struct {
	mu      sync.Mutex
	entries map[string]*Entry // updated in place: a refresh copies no Entry
	tombs   map[string]tombstone

	// log holds the stamps made here (every ChangeEpoch and tombstone
	// epoch), oldest first, and its tail is the change watermark;
	// logFloor is the newest epoch trimmed from it. LISTD replays the log
	// past the client's cursor. Both are written and read under mu — the
	// lock hold in which the writer claimed the epoch — so the
	// Server.epoch argument covers them exactly as it covers the entries.
	log      []change
	logFloor uint64
	// nextDue is a lower bound on the earliest time TTL expiry could
	// change anything here (see Entry.due; a tombstone's is its Keep).
	// Inserts lower it; a heartbeat that pushes an Expires later leaves
	// it stale-early, which is safe: the sweep it triggers finds nothing
	// and, like every sweep, recomputes it exactly.
	nextDue time.Time
}

func newShard() *shard {
	return &shard{
		entries: make(map[string]*Entry),
		tombs:   make(map[string]tombstone),
		nextDue: never,
	}
}

// stamp claims the next epoch for a change to name in sh and records it
// in the change log (a full log first drops its older half). Every
// change a client can see goes through here, holding sh.mu.
func (s *Server) stamp(sh *shard, name string) uint64 {
	epoch := s.epoch.Add(1)
	if len(sh.log) == logCap {
		sh.logFloor = sh.log[logCap/2-1].epoch
		sh.log = append(sh.log[:0], sh.log[logCap/2:]...)
	}
	sh.log = append(sh.log, change{epoch, name})
	return epoch
}

// lowerDue brings nextDue forward to due, when expiry could first touch
// what a write just stored. Caller holds sh.mu.
func (sh *shard) lowerDue(due time.Time) {
	if due.Before(sh.nextDue) {
		sh.nextDue = due
	}
}

// replay passes to the visitors, once each, the current state of every
// name changed in sh after since, reading only the log records past
// since; a shard whose log tail is at or below since costs one
// comparison. A record whose name has been stamped again since no
// longer matches the name's entry or tombstone and is skipped: the newer
// record stands for it. It reports false, passing nothing, when the log
// no longer reaches back to since. Caller holds sh.mu and knows no
// expiry is due in sh.
func (sh *shard) replay(since uint64, entry func(*Entry), tomb func(string, tombstone)) bool {
	if n := len(sh.log); n == 0 || sh.log[n-1].epoch <= since {
		return true // an empty log has never been trimmed
	}
	if since < sh.logFloor {
		return false
	}
	i := sort.Search(len(sh.log), func(i int) bool { return sh.log[i].epoch > since })
	for _, c := range sh.log[i:] {
		if e, ok := sh.entries[c.name]; ok && e.ChangeEpoch == c.epoch {
			entry(e)
		} else if t, ok := sh.tombs[c.name]; ok && t.Epoch == c.epoch {
			tomb(c.name, t)
		}
	}
	return true
}

// shardFor maps a relay name to its owning shard.
func (s *Server) shardFor(name string) *shard {
	return s.shards[int(fnv32(name)%uint32(len(s.shards)))]
}

// fnv32 is the FNV-1a hash of s (inlined to keep the hot REGISTER path
// free of hash.Hash allocation).
func fnv32(s string) uint32 {
	const (
		offset32 = 2166136261
		prime32  = 16777619
	)
	h := uint32(offset32)
	for i := 0; i < len(s); i++ {
		h ^= uint32(s[i])
		h *= prime32
	}
	return h
}

// due is the earliest time expiry could next change e: its TTL lapse
// while it is live, the end of its grace once it is down.
func (e Entry) due() time.Time {
	if e.Down {
		return e.Expires.Add(downGraceFactor * e.TTL)
	}
	return e.Expires
}

// scan visits the table one shard at a time under the shard's lock,
// walking a shard unless no TTL expiry is due in it and served (nil:
// never) answers for it without a walk — it holds nothing the caller
// wants, or served passed that to the visitors itself. Shard
// boundaries double as scheduling points: the scan yields after each
// walk so concurrent writers interleave instead of queueing behind the
// whole scan — the hold a single-mutex table cannot avoid. The entry
// visitor reads the table in place, under the shard's lock: it copies
// what it keeps.
func (s *Server) scan(served func(*shard) bool, entry func(*Entry), tomb func(string, tombstone)) {
	s.init()
	now := s.now()
	for _, sh := range s.shards {
		sh.mu.Lock()
		if served != nil && now.Before(sh.nextDue) && served(sh) {
			sh.mu.Unlock()
			continue
		}
		s.walkShard(sh, now, entry, tomb)
		sh.mu.Unlock()
		runtime.Gosched()
	}
}

// walkShard passes sh's entries and tombstones to the (optional)
// visitors in one walk under sh.mu, applying TTL expiry in that same
// walk when it is due: lapsed entries are marked down (a material
// change — clients need to see the outage), down entries past their
// grace become tombstones, and expired tombstones are pruned, raising
// the delta floor past their epochs. Visitors see the swept state.
func (s *Server) walkShard(sh *shard, now time.Time, entry func(*Entry), tomb func(string, tombstone)) {
	s.walks.Add(1)
	sweep := !now.Before(sh.nextDue)
	due := never
	for name, e := range sh.entries {
		if sweep {
			if now.After(e.due()) && e.Down {
				delete(sh.entries, name)
				sh.tombs[name] = tombstone{Epoch: s.stamp(sh, name), Keep: now.Add(tombstoneKeep)}
				continue
			}
			if now.After(e.due()) {
				e.Down = true
				e.ChangeEpoch = s.stamp(sh, name)
				s.Downs.Add(1)
			}
			if d := e.due(); d.Before(due) {
				due = d
			}
		}
		if entry != nil {
			entry(e)
		}
	}
	if !sweep && tomb == nil {
		return
	}
	for name, t := range sh.tombs {
		if sweep && now.After(t.Keep) {
			delete(sh.tombs, name)
			s.raiseFloor(t.Epoch)
			continue
		}
		if t.Keep.Before(due) {
			due = t.Keep
		}
		if tomb != nil {
			tomb(name, t)
		}
	}
	if sweep {
		sh.nextDue = due
	}
}

// eachShard passes the table to emit one shard at a time: each shard's
// entries (live and down) are copied under its lock, applying the
// expiry that is due as every walk does, and handed to emit after the
// unlock, so however slowly emit drains them — a full LISTD written to
// a slow client — no writer waits on it. The slice is reused for the
// next shard.
func (s *Server) eachShard(emit func([]Entry)) {
	s.init()
	now := s.now()
	var buf []Entry
	for _, sh := range s.shards {
		sh.mu.Lock()
		buf = slices.Grow(buf[:0], len(sh.entries))
		s.walkShard(sh, now, func(e *Entry) { buf = append(buf, *e) }, nil)
		sh.mu.Unlock()
		emit(buf)
		runtime.Gosched() // as scan does: writers interleave with the copy
	}
}

// size counts the entries (live and down) the table holds, for sizing a
// copy of it; entries may come and go before the copy is made.
func (s *Server) size() int {
	s.init()
	n := 0
	for _, sh := range s.shards {
		sh.mu.Lock()
		n += len(sh.entries)
		sh.mu.Unlock()
	}
	return n
}

// raiseFloor lifts deltaFloor to at least epoch.
func (s *Server) raiseFloor(epoch uint64) {
	for {
		cur := s.deltaFloor.Load()
		if cur >= epoch || s.deltaFloor.CompareAndSwap(cur, epoch) {
			return
		}
	}
}

// ShardStats describes one shard for /debug/registry.
type ShardStats struct {
	Entries    int `json:"entries"`
	Tombstones int `json:"tombstones"`
}

// Stats is the point-in-time table view served on /debug/registry.
type Stats struct {
	Epoch      uint64       `json:"epoch"`
	DeltaFloor uint64       `json:"delta_floor"`
	Shards     int          `json:"shards"`
	Live       int          `json:"live"`
	Down       int          `json:"down"`
	Tombstones int          `json:"tombstones"`
	PerShard   []ShardStats `json:"per_shard"`
}

// Stats snapshots per-shard occupancy (applying any expiry that is due
// on the way).
func (s *Server) Stats() Stats {
	s.init()
	now := s.now()
	st := Stats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		var ss ShardStats
		sh.mu.Lock()
		s.walkShard(sh, now, func(e *Entry) {
			if e.Down {
				st.Down++
			} else {
				st.Live++
			}
		}, nil)
		ss.Entries, ss.Tombstones = len(sh.entries), len(sh.tombs)
		sh.mu.Unlock()
		st.Tombstones += ss.Tombstones
		st.PerShard = append(st.PerShard, ss)
	}
	st.Epoch = s.epoch.Load()
	st.DeltaFloor = s.deltaFloor.Load()
	return st
}
