package registry

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestListDeltaFirstSyncIsFull(t *testing.T) {
	var s Server
	s.RegisterHealth("a", "x:1", time.Minute, 0.9)
	s.RegisterHealth("b", "y:1", time.Minute, 0.1)
	d := s.ListDelta(0, 0)
	if !d.Full || len(d.Entries) != 2 {
		t.Fatalf("first sync = %+v", d)
	}
	if d.Epoch != s.Epoch() {
		t.Fatalf("delta epoch %d, server epoch %d", d.Epoch, s.Epoch())
	}
}

func TestListDeltaIncrementalOnlyChanges(t *testing.T) {
	var s Server
	s.RegisterHealth("a", "x:1", time.Minute, 0.9)
	s.RegisterHealth("b", "y:1", time.Minute, 0.1)
	e := s.ListDelta(0, 0).Epoch

	// Pure heartbeat: same addr, same health — no client-visible change.
	s.RegisterHealth("a", "x:1", time.Minute, 0.9)
	d := s.ListDelta(e, 0)
	if d.Full || len(d.Entries) != 0 {
		t.Fatalf("pure heartbeat produced a delta: %+v", d)
	}

	// Material change: health moved.
	s.RegisterHealth("a", "x:1", time.Minute, 0.5)
	d = s.ListDelta(d.Epoch, 0)
	if d.Full || len(d.Entries) != 1 || d.Entries[0].Name != "a" || d.Entries[0].Health != 0.5 {
		t.Fatalf("health change delta = %+v", d)
	}

	// Delete arrives as a tombstone line.
	s.Remove("b")
	d = s.ListDelta(d.Epoch, 0)
	if d.Full || len(d.Entries) != 1 || !d.Entries[0].Deleted || d.Entries[0].Name != "b" {
		t.Fatalf("delete delta = %+v", d)
	}
}

func TestListDeltaUnknownEpochFallsBackToFull(t *testing.T) {
	var s Server
	s.Register("a", "x:1", time.Minute)
	d := s.ListDelta(s.Epoch()+100, 0) // from a future/other server's epoch
	if !d.Full {
		t.Fatalf("unknown epoch should force a full snapshot: %+v", d)
	}
}

func TestListDeltaBelowFloorFallsBackToFull(t *testing.T) {
	now := time.Unix(1000, 0)
	s := Server{Clock: func() time.Time { return now }}
	s.Register("a", "x:1", time.Second)
	e := s.Epoch()
	// Walk the entry through its whole afterlife: down, tombstoned, and
	// finally pruned (each stage needs its own sweep at a later time).
	now = now.Add(time.Second * 4)
	s.Sweep() // down-marked
	now = now.Add(time.Hour)
	s.Sweep() // past grace: tombstoned, kept for tombstoneKeep
	now = now.Add(time.Hour)
	s.Sweep() // tombstone pruned, delta floor raised
	s.Register("b", "y:1", time.Minute)
	d := s.ListDelta(e, 0)
	if !d.Full {
		t.Fatalf("pre-floor epoch must get a full snapshot: floor=%d d=%+v", s.deltaFloor.Load(), d)
	}
}

// The delta property test: from ANY interleaving of registrations,
// health changes, heartbeats, removals, and clock advances, a client
// that applies LISTD deltas from any starting epoch converges to the
// same view as a client that pulls the full list — the mirror never
// silently diverges.
func TestDeltaSyncPropertyReconstructsFullView(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		seed := seed
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			now := time.Unix(10_000, 0)
			s := Server{NumShards: 4, Clock: func() time.Time { return now }}
			names := make([]string, 12)
			for i := range names {
				names[i] = fmt.Sprintf("relay-%d", i)
			}

			// Several mirrors, syncing at staggered times (so each sees a
			// different interleaving of deltas), plus mirror 0 starting
			// mid-stream from a nonzero epoch.
			mirrors := make([]*RankedSet, 4)
			for i := range mirrors {
				mirrors[i] = NewRankedSet()
			}
			// A peer on the same clock pulls SYNCD deltas on its own
			// cadence, so the SeenEpoch watermark is skipped over by the
			// same interleavings (a skipped heartbeat would let the peer's
			// copy lapse while the source's stays live).
			peer := Server{NumShards: 8, Clock: func() time.Time { return now }}
			var cursor uint64
			pull := func() {
				d := s.SyncDelta(cursor)
				peer.Merge(d.Entries)
				cursor = d.Epoch
				// Nothing was skipped: the peer now holds every source entry
				// under the same LastSeen, as an entry or (when its own expiry
				// got there first) as the tombstone of that entry.
				held, buried := heldLastSeen(&peer)
				live, _ := heldLastSeen(&s)
				for name, seen := range live {
					if !held[name].Equal(seen) && !buried[name].Equal(seen) {
						t.Fatalf("pull to epoch %d missed %s: source saw it %v, peer holds %v (tombstone %v)",
							cursor, name, seen, held[name], buried[name])
					}
				}
			}

			for step := 0; step < 400; step++ {
				// Every step is a distinct instant: the peer merges
				// last-writer-wins on LastSeen, and ties keep the local copy.
				now = now.Add(time.Millisecond)
				name := names[rng.Intn(len(names))]
				switch rng.Intn(10) {
				case 0, 1, 2, 3: // heartbeat / register
					s.RegisterHealth(name, name+":1", 30*time.Second, float64(rng.Intn(3))/2)
				case 4:
					s.Register(name, name+":2", 20*time.Second) // addr change
				case 5:
					s.Remove(name)
				case 6:
					now = now.Add(time.Duration(rng.Intn(10)) * time.Second)
				case 7:
					now = now.Add(time.Duration(rng.Intn(90)) * time.Second) // force expiries
				default:
					// quiet step
				}
				for i, m := range mirrors {
					if step%(3+i*5) == 0 { // staggered sync cadences
						m.Apply(s.ListDelta(m.Epoch(), 0))
					}
				}
				if step%7 == 0 {
					pull()
				}
			}

			// Final sync for every mirror, then compare against the truth.
			want := s.rankedAll(0)
			sort.Slice(want, func(i, j int) bool { return want[i].Name < want[j].Name })
			for i, m := range mirrors {
				m.Apply(s.ListDelta(m.Epoch(), 0))
				got := m.All()
				sort.Slice(got, func(a, b int) bool { return got[a].Name < got[b].Name })
				if len(got) != len(want) {
					t.Fatalf("mirror %d: %d entries, want %d\n got=%+v\nwant=%+v", i, len(got), len(want), got, want)
				}
				for j := range want {
					g, w := got[j], want[j]
					if g.Name != w.Name || g.Addr != w.Addr || g.Health != w.Health || g.Down != w.Down {
						t.Fatalf("mirror %d diverged at %q:\n got %+v\nwant %+v", i, w.Name, g, w)
					}
				}
			}

			// The peer: bring both tables to their expiry fixed point at the
			// final time (down-marking and tombstoning take a sweep each),
			// pull once more, and the two must hold the same entries.
			for i := 0; i < 2; i++ {
				s.Sweep()
				peer.Sweep()
			}
			pull()
			want, got := s.ListAll(), peer.ListAll()
			if len(got) != len(want) {
				t.Fatalf("peer holds %d entries, want %d\n got=%+v\nwant=%+v", len(got), len(want), got, want)
			}
			for j := range want {
				g, w := got[j], want[j]
				if g.Name != w.Name || g.Addr != w.Addr || g.Health != w.Health || g.Down != w.Down || !g.LastSeen.Equal(w.LastSeen) {
					t.Fatalf("peer diverged at %q:\n got %+v\nwant %+v", w.Name, g, w)
				}
			}
		})
	}
}

// heldLastSeen reads, without applying expiry, the LastSeen of every
// entry and of every tombstone s holds.
func heldLastSeen(s *Server) (entries, tombs map[string]time.Time) {
	s.init()
	entries, tombs = map[string]time.Time{}, map[string]time.Time{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for name, e := range sh.entries {
			entries[name] = e.LastSeen
		}
		for name, t := range sh.tombs {
			tombs[name] = t.LastSeen
		}
		sh.mu.Unlock()
	}
	return entries, tombs
}

func TestRankedSetTopMatchesServerRanking(t *testing.T) {
	var s Server
	s.RegisterHealth("hi", "a:1", time.Minute, 0.9)
	s.RegisterHealth("mid", "b:1", time.Minute, 0.5)
	s.RegisterHealth("lo", "c:1", time.Minute, 0.1)
	m := NewRankedSet()
	m.Apply(s.ListDelta(0, 0))
	top := m.Top(2)
	if len(top) != 2 || top[0].Name != "hi" || top[1].Name != "mid" {
		t.Fatalf("top = %+v", top)
	}
	st := m.Stats()
	if st.Refreshes != 1 || st.Fulls != 1 || st.Entries != 3 {
		t.Fatalf("stats = %+v", st)
	}
}

// Watermark soundness under concurrency: a writer making material
// changes on random names while a reader applies deltas from its own
// epoch. Once the writer stops, one more delta must bring the mirror
// level with the table. A shard watermark stored outside the shard lock
// (or read outside it) lets a poll skip a shard whose stamp is at or
// below the epoch it returns — the change is then lost for good, and
// the race detector sees the unsynchronised access.
func TestListDeltaWatermarkUnderConcurrentWrites(t *testing.T) {
	s := Server{NumShards: 8}
	const names = 64
	for i := 0; i < names; i++ {
		s.RegisterHealth(fmt.Sprintf("relay-%d", i), "h:1", time.Hour, 0)
	}
	m := NewRankedSet()
	m.Apply(s.ListDelta(0, 0))

	done := make(chan struct{})
	go func() {
		defer close(done)
		rng := rand.New(rand.NewSource(1))
		for i := 1; i <= 20000; i++ {
			// Distinct from the entry's previous health: always material.
			s.RegisterHealth(fmt.Sprintf("relay-%d", rng.Intn(names)), "h:1", time.Hour, float64(i)/20000)
		}
	}()
	for polling := true; polling; {
		select {
		case <-done:
			polling = false
		default:
		}
		d := s.ListDelta(m.Epoch(), 0)
		if d.Full {
			t.Fatalf("incremental poll from epoch %d fell back to a full snapshot", d.Since)
		}
		m.Apply(d)
	}
	// The last loop iteration began after the writer finished.
	if got, want := m.Epoch(), s.Epoch(); got != want {
		t.Fatalf("mirror at epoch %d, server at %d", got, want)
	}
	want, got := s.rankedAll(0), m.All()
	if len(got) != len(want) {
		t.Fatalf("mirror holds %d entries, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i].Name != want[i].Name || got[i].Health != want[i].Health {
			t.Fatalf("mirror diverged at rank %d: got %s %v, want %s %v",
				i, got[i].Name, got[i].Health, want[i].Name, want[i].Health)
		}
	}
}
