package registry

import (
	"fmt"
	"maps"
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
// silently diverges. At every step, every poll a mirror could make (and
// one from a cursor pinned at the start) answers exactly what reading
// the shards says changed, whether the poll replays a shard's change log
// or walks the shard; midway one shard's log overflows between two polls.
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
			// pinned is the epoch after the first step; replayed counts the
			// changed polls answered without walking a shard.
			var pinned uint64
			replayed := 0
			check := func(s *Server, since uint64) {
				t.Helper()
				if walked, changed := checkDelta(t, s, since); walked == 0 && changed {
					replayed++
				}
			}
			for step := 0; step < 400; step++ {
				now = now.Add(time.Millisecond)
				name := names[rng.Intn(len(names))]
				if step == 200 {
					// More material changes to one name than its shard's log
					// holds: every cursor now lies below that shard's log
					// floor, and the next polls walk it.
					for i := 0; i <= logCap; i++ {
						s.RegisterHealth(name, name+":1", 30*time.Second, float64(i%2))
					}
					if floor := s.shardFor(name).logFloor; floor <= pinned || floor <= mirrors[0].Epoch() {
						t.Fatalf("log floor %d after an overflow, want above cursors %d and %d", floor, pinned, mirrors[0].Epoch())
					}
				}
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
				if pinned == 0 {
					pinned = s.Epoch()
				}
				for _, m := range mirrors {
					check(&s, m.Epoch())
				}
				check(&s, pinned)
			}
			if replayed == 0 {
				t.Fatal("no changed poll was answered from the change logs alone")
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

		})
	}
}

// Every cursor from just below a trimmed log's floor gets the answer a
// direct read of the shard gives. Each of the logCap+1 inserts is its
// name's latest change, so a floor set below the last record the trim
// dropped loses names.
func TestListDeltaEveryCursorAcrossLogTrim(t *testing.T) {
	s := Server{NumShards: 1}
	for i := 0; i <= logCap; i++ {
		s.Register(fmt.Sprintf("relay-%04d", i), "h:1", time.Hour)
	}
	floor := s.shards[0].logFloor
	if floor == 0 {
		t.Fatalf("%d material stamps did not trim a %d-record log", logCap+1, logCap)
	}
	for since := floor - 1; since <= s.Epoch(); since++ {
		if walked, _ := checkDelta(t, &s, since); (walked != 0) != (since < floor) {
			t.Fatalf("ListDelta(%d) walked %d shards with the log floor at %d", since, walked, floor)
		}
	}
}

// checkDelta asserts that s.ListDelta(since, 0) answers what reading
// every shard's entries and tombstones under its lock says: each entry
// and tombstone stamped after since, once — or, as a full snapshot, and
// only when since needs one, every entry. It reports how many shards the
// poll walked and whether it answered any change incrementally.
func checkDelta(t *testing.T, s *Server, since uint64) (walked int64, changed bool) {
	t.Helper()
	walks := s.walks.Load()
	d := s.ListDelta(since, 0)
	walked = s.walks.Load() - walks
	if d.Full && !s.needsFull(since, d.Epoch) {
		t.Fatalf("ListDelta(%d) fell back to a full snapshot at epoch %d, floor %d", since, d.Epoch, s.deltaFloor.Load())
	}
	want := map[string]DeltaEntry{}
	for _, sh := range s.shards {
		sh.mu.Lock()
		for name, e := range sh.entries {
			if d.Full || e.ChangeEpoch > since {
				want[name] = DeltaEntry{Entry: *e}
			}
		}
		for name, tb := range sh.tombs {
			if !d.Full && tb.Epoch > since {
				want[name] = DeltaEntry{Entry: Entry{Name: name}, Deleted: true}
			}
		}
		sh.mu.Unlock()
	}
	got := map[string]DeltaEntry{}
	for _, de := range d.Entries {
		if _, dup := got[de.Name]; dup {
			t.Fatalf("ListDelta(%d) answered %s twice", since, de.Name)
		}
		got[de.Name] = de
	}
	if !maps.Equal(got, want) {
		t.Fatalf("ListDelta(%d) full=%v answered\n %+v\nthe shards hold\n %+v", since, d.Full, got, want)
	}
	return walked, !d.Full && len(got) > 0
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
