package registry

import (
	"runtime"
	"strconv"
	"sync"
	"time"
)

// The table is striped into shards keyed by FNV-1a hash of the relay
// name. A REGISTER touches exactly one shard, so a heartbeat storm from
// 100k relays spreads its lock traffic across NumShards mutexes instead
// of serializing on one; table scans (LISTH, LISTD, peer sync) visit
// shards one at a time and never stall writers on more than 1/NumShards
// of the table. Epochs are claimed from the server-wide counter while
// holding the owning shard's lock — see Server.epoch for why readers
// cannot miss a stamped change. Each shard also remembers the newest
// epoch stamped in it and the earliest time TTL expiry could touch it,
// so delta scans skip the shards their cursor has already passed and no
// scan applies expiry before something in the shard can have lapsed.

// tombstoneKeep is how long a delete is remembered so delta clients and
// peers that sync within it see the removal; pruning a tombstone raises
// the server's delta floor, forcing older clients onto a full snapshot.
const tombstoneKeep = 10 * time.Minute

// tombstone records a deleted entry: the epoch of the delete (for
// LISTD/SYNCD filtering), the LastSeen it supersedes (for last-writer-
// wins peer merges), and how long to remember it.
type tombstone struct {
	Epoch    uint64
	LastSeen time.Time
	Keep     time.Time
}

// never is the due time of a shard in which nothing can lapse.
var never = time.Unix(1<<62, 0)

// shard is one table partition. All fields are guarded by mu.
type shard struct {
	mu      sync.Mutex
	entries map[string]Entry
	tombs   map[string]tombstone

	// lastChange is the highest ChangeEpoch or tombstone epoch ever
	// stamped here, lastSeen the highest seenEpoch: LISTD skips a shard
	// whose lastChange has not passed the client's cursor, SYNCD one
	// whose lastSeen has not. Read under mu — the lock hold in which the
	// writer claimed the epoch — so the Server.epoch argument covers the
	// watermark exactly as it covers the entries.
	lastChange, lastSeen uint64
	// nextDue is a lower bound on the earliest time TTL expiry could
	// change anything here (see Entry.due; a tombstone's is its Keep).
	// Inserts lower it; a heartbeat that pushes an Expires later leaves
	// it stale-early, which is safe: the sweep it triggers finds nothing
	// and, like every sweep, recomputes it exactly.
	nextDue time.Time
}

func newShard() *shard {
	return &shard{
		entries: make(map[string]Entry),
		tombs:   make(map[string]tombstone),
		nextDue: never,
	}
}

// stamp claims the next epoch for a mutation of sh and records it in
// the shard's watermarks; due is when expiry could first touch what the
// mutation wrote. Every mutation goes through here, holding sh.mu.
func (s *Server) stamp(sh *shard, material bool, due time.Time) uint64 {
	epoch := s.epoch.Add(1)
	sh.lastSeen = epoch
	if material {
		sh.lastChange = epoch
	}
	if due.Before(sh.nextDue) {
		sh.nextDue = due
	}
	return epoch
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
// walking a shard unless clean (nil: never) vouches that it holds
// nothing the caller wants and no TTL expiry is due in it. Shard
// boundaries double as scheduling points: the scan yields after each
// walk so concurrent writers interleave instead of queueing behind the
// whole scan — the hold a single-mutex table cannot avoid.
func (s *Server) scan(clean func(*shard) bool, entry func(Entry), tomb func(string, tombstone)) {
	s.init()
	now := s.now()
	for _, sh := range s.shards {
		sh.mu.Lock()
		if clean != nil && clean(sh) && now.Before(sh.nextDue) {
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
func (s *Server) walkShard(sh *shard, now time.Time, entry func(Entry), tomb func(string, tombstone)) {
	s.walks.Add(1)
	sweep := !now.Before(sh.nextDue)
	due := never
	for name, e := range sh.entries {
		if sweep {
			if now.After(e.due()) && e.Down {
				delete(sh.entries, name)
				sh.tombs[name] = tombstone{
					Epoch:    s.stamp(sh, true, never),
					LastSeen: e.LastSeen,
					Keep:     now.Add(tombstoneKeep),
				}
				continue
			}
			if now.After(e.due()) {
				e.Down = true
				e.ChangeEpoch = s.stamp(sh, true, never)
				e.seenEpoch = e.ChangeEpoch
				sh.entries[name] = e
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
	Entries    int    `json:"entries"`
	Tombstones int    `json:"tombstones"`
	Digest     uint64 `json:"digest"`
}

// Stats is the point-in-time table view served on /debug/registry.
type Stats struct {
	Epoch      uint64       `json:"epoch"`
	DeltaFloor uint64       `json:"delta_floor"`
	Shards     int          `json:"shards"`
	Live       int          `json:"live"`
	Down       int          `json:"down"`
	Tombstones int          `json:"tombstones"`
	Digest     uint64       `json:"digest"`
	PerShard   []ShardStats `json:"per_shard"`
}

// Stats snapshots per-shard occupancy and digests (applying any expiry
// that is due on the way).
func (s *Server) Stats() Stats {
	s.init()
	now := s.now()
	st := Stats{Shards: len(s.shards)}
	for _, sh := range s.shards {
		var ss ShardStats
		sh.mu.Lock()
		s.walkShard(sh, now, func(e Entry) {
			if e.Down {
				st.Down++
			} else {
				st.Live++
			}
			ss.Digest ^= entryDigest(e)
		}, nil)
		ss.Entries, ss.Tombstones = len(sh.entries), len(sh.tombs)
		sh.mu.Unlock()
		st.Tombstones += ss.Tombstones
		st.Digest ^= ss.Digest
		st.PerShard = append(st.PerShard, ss)
	}
	st.Epoch = s.epoch.Load()
	st.DeltaFloor = s.deltaFloor.Load()
	return st
}

// Digest returns an order-independent hash of the table's converged
// state (name, address, health, last-seen, down). Two peers whose
// digests match hold the same view; peer sync uses it to detect
// divergence and tests use it to assert convergence.
func (s *Server) Digest() uint64 {
	s.init()
	var d uint64
	for _, sh := range s.shards {
		sh.mu.Lock()
		d ^= shardDigest(sh)
		sh.mu.Unlock()
	}
	return d
}

// shardDigest XORs per-entry FNV-1a hashes (commutative, so map
// iteration order is irrelevant). Caller holds sh.mu.
func shardDigest(sh *shard) uint64 {
	var d uint64
	for _, e := range sh.entries {
		d ^= entryDigest(e)
	}
	return d
}

func entryDigest(e Entry) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	mix := func(s string) {
		for i := 0; i < len(s); i++ {
			h ^= uint64(s[i])
			h *= prime64
		}
		h ^= 0xff // field separator
		h *= prime64
	}
	mix(e.Name)
	mix(e.Addr)
	mix(formatHealth(e.Health))
	mix(strconv64(e.LastSeen.UnixNano()))
	mix(e.MetricsAddr)
	if e.Down {
		mix("down")
	}
	return h
}

func strconv64(v int64) string { return strconv.FormatInt(v, 10) }
