package registry

import (
	"fmt"
	"sync"
	"testing"
	"time"
)

// Shard distribution: FNV-1a over realistic relay names must not pile
// everything on a few stripes, or the sharded design degenerates back
// into a global lock.
func TestShardDistribution(t *testing.T) {
	s := Server{NumShards: 32}
	s.init()
	counts := make(map[*shard]int)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[s.shardFor(fmt.Sprintf("relay-%05d", i))]++
	}
	if len(counts) != 32 {
		t.Fatalf("only %d of 32 shards used", len(counts))
	}
	mean := n / 32
	for sh, c := range counts {
		if c < mean/2 || c > mean*2 {
			t.Errorf("shard %p holds %d entries, mean %d — distribution badly skewed", sh, c, mean)
		}
	}
}

func TestShardForIsStable(t *testing.T) {
	s := Server{NumShards: 8}
	s.init()
	for _, name := range []string{"a", "relay-1", "campus-gw", ""} {
		if s.shardFor(name) != s.shardFor(name) {
			t.Fatalf("shardFor(%q) not stable", name)
		}
	}
}

// Zero-value Server must stay usable: daemon and experiment code build
// it as &registry.Server{} / var s registry.Server.
func TestZeroValueServer(t *testing.T) {
	var s Server
	if err := s.Register("a", "x:1", time.Minute); err != nil {
		t.Fatal(err)
	}
	st := s.Stats()
	if st.Shards != DefaultShards {
		t.Fatalf("zero-value server got %d shards, want %d", st.Shards, DefaultShards)
	}
	if st.Live != 1 {
		t.Fatalf("stats live = %d, want 1", st.Live)
	}
	if st.Epoch == 0 {
		t.Fatal("registration did not advance the epoch")
	}
}

// Hammer registrations from many goroutines across overlapping names;
// run under -race this is the striped-lock safety test.
func TestConcurrentRegisterRace(t *testing.T) {
	s := Server{NumShards: 8}
	const workers = 16
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				name := fmt.Sprintf("relay-%d", i%50) // heavy name overlap
				if err := s.RegisterHealth(name, "h:1", time.Minute, float64(w%2)); err != nil {
					t.Error(err)
					return
				}
				if i%20 == 0 {
					s.ListRanked(10)
					s.ListDelta(0, 0)
				}
			}
		}(w)
	}
	wg.Wait()
	if got := len(s.List()); got != 50 {
		t.Fatalf("table holds %d entries, want 50", got)
	}
	// Epoch must be strictly positive and at least the number of distinct
	// material changes.
	if s.Epoch() < 50 {
		t.Fatalf("epoch %d after >=50 material changes", s.Epoch())
	}
}

func TestDigestOrderIndependent(t *testing.T) {
	a := Server{NumShards: 4}
	b := Server{NumShards: 16} // different shard count, same logical table
	names := []string{"r1", "r2", "r3", "r4", "r5"}
	clock := func() time.Time { return time.Unix(5000, 0) }
	a.Clock, b.Clock = clock, clock
	for _, n := range names {
		a.RegisterHealth(n, n+":1", time.Minute, 0.5)
	}
	for i := len(names) - 1; i >= 0; i-- { // reverse insertion order
		b.RegisterHealth(names[i], names[i]+":1", time.Minute, 0.5)
	}
	if a.Digest() != b.Digest() {
		t.Fatalf("digest depends on shard layout or order: %d vs %d", a.Digest(), b.Digest())
	}
	b.RegisterHealth("r1", "r1:1", time.Minute, 0.9) // diverge
	if a.Digest() == b.Digest() {
		t.Fatal("digest blind to a health change")
	}
}

func TestSweepDownThenTombstone(t *testing.T) {
	now := time.Unix(1000, 0)
	s := Server{Clock: func() time.Time { return now }}
	s.Register("a", "x:1", 10*time.Second)
	e0 := s.ListAll()[0]

	now = now.Add(11 * time.Second) // past TTL: down, still visible
	all := s.ListAll()
	if len(all) != 1 || !all[0].Down {
		t.Fatalf("expected down-marked entry, got %+v", all)
	}
	if all[0].ChangeEpoch <= e0.ChangeEpoch {
		t.Fatal("down transition did not bump ChangeEpoch")
	}
	if live := s.List(); len(live) != 0 {
		t.Fatalf("down entry leaked into live list: %+v", live)
	}

	now = now.Add(downGraceFactor * 10 * time.Second) // past grace: gone
	if all := s.ListAll(); len(all) != 0 {
		t.Fatalf("entry survived grace: %+v", all)
	}
	st := s.Stats()
	if st.Tombstones != 1 {
		t.Fatalf("tombstones = %d, want 1", st.Tombstones)
	}

	now = now.Add(tombstoneKeep + time.Second) // tombstone pruned
	st = s.Stats()
	if st.Tombstones != 0 {
		t.Fatalf("tombstone not pruned: %+v", st)
	}
	if st.DeltaFloor == 0 {
		t.Fatal("pruning did not raise the delta floor")
	}
}

// Due-time sweeps must be exact where it shows: an entry whose TTL
// lapses is reported down by the first poll after its Expires — with no
// Sweep in between, no writer, and the client's cursor already at the
// server's epoch, which is the poll a "nothing was stamped, so nothing
// changed" shortcut would answer wrongly.
func TestListDeltaReportsLapseWithoutSweep(t *testing.T) {
	s, now := clockServer(time.Unix(1000, 0))
	s.NumShards = 4
	for i := 0; i < 16; i++ {
		s.Register(fmt.Sprintf("r%d", i), "x:1", time.Hour)
	}
	s.Register("short", "x:1", 10*time.Second)
	m := NewRankedSet()
	m.Apply(s.ListDelta(0, 0))

	*now = now.Add(10 * time.Second) // exactly Expires: not yet lapsed
	if d := s.ListDelta(m.Epoch(), 0); d.Full || len(d.Entries) != 0 {
		t.Fatalf("poll at Expires = %+v, want empty", d)
	}
	if m.Epoch() != s.Epoch() {
		t.Fatalf("cursor %d behind epoch %d before the lapse", m.Epoch(), s.Epoch())
	}
	*now = now.Add(time.Nanosecond)
	d := s.ListDelta(m.Epoch(), 0)
	if d.Full || len(d.Entries) != 1 || d.Entries[0].Name != "short" || !d.Entries[0].Down {
		t.Fatalf("first poll after the lapse = %+v, want short down", d)
	}
}

// A heartbeat that pushes Expires later leaves the shard's due time
// stale-early; the sweep that fires at the old Expires must find
// nothing, and the entry must still lapse at the new one.
func TestRefreshedEntryOutlivesItsOldExpiry(t *testing.T) {
	s, now := clockServer(time.Unix(1000, 0))
	s.Register("a", "x:1", 10*time.Second)
	m := NewRankedSet()
	m.Apply(s.ListDelta(0, 0))
	*now = now.Add(8 * time.Second)
	s.Register("a", "x:1", 10*time.Second) // Expires: 1010 -> 1018
	*now = now.Add(3 * time.Second)        // 1011: past the old Expires
	if d := s.ListDelta(m.Epoch(), 0); d.Full || len(d.Entries) != 0 {
		t.Fatalf("poll past the old Expires = %+v, want empty", d)
	}
	if got := s.List(); len(got) != 1 {
		t.Fatalf("refreshed entry not live: %+v", got)
	}
	*now = now.Add(8 * time.Second) // 1019: past the new one
	if d := s.ListDelta(m.Epoch(), 0); len(d.Entries) != 1 || !d.Entries[0].Down {
		t.Fatalf("poll past the new Expires = %+v, want a down", d)
	}
}

// Tombstone pruning still happens with nobody calling Sweep: the poll
// whose own expiry pass prunes a tombstone the client needed sees the
// raised floor after its scan and answers with a full snapshot.
func TestPollPrunesTombstoneAndFallsBackToFull(t *testing.T) {
	s, now := clockServer(time.Unix(1000, 0))
	s.Register("keep", "x:1", 24*time.Hour)
	s.Register("gone", "y:1", time.Minute)
	m := NewRankedSet()
	m.Apply(s.ListDelta(0, 0))
	cursor := m.Epoch()
	s.Remove("gone")
	*now = now.Add(tombstoneKeep + time.Second)
	d := s.ListDelta(cursor, 0)
	if !d.Full || s.deltaFloor.Load() <= cursor {
		t.Fatalf("floor=%d cursor=%d delta=%+v, want a full snapshot from a raised floor", s.deltaFloor.Load(), cursor, d)
	}
	m.Apply(d)
	if got := m.All(); len(got) != 1 || got[0].Name != "keep" {
		t.Fatalf("mirror after the fallback = %+v, want only keep", got)
	}
	if st := s.Stats(); st.Tombstones != 0 {
		t.Fatalf("tombstone not pruned: %+v", st)
	}
}

// A quiet poll walks no entries: every shard is skipped on its watermark
// and due time. A changed poll walks exactly the shards that changed.
func TestQuietPollWalksNoShard(t *testing.T) {
	var s Server
	for i := 0; i < 5000; i++ {
		s.RegisterHealth(fmt.Sprintf("relay-%05d", i), "10.0.0.1:1", time.Minute, 0.5)
	}
	since := s.Epoch()
	s.RegisterHealth("relay-00007", "10.0.0.1:1", time.Minute, 0.5) // pure refresh
	walks := s.walks.Load()
	if d := s.ListDelta(since, 0); d.Full || len(d.Entries) != 0 {
		t.Fatalf("quiet delta = %+v", d)
	}
	if got := s.walks.Load() - walks; got != 0 {
		t.Fatalf("quiet ListDelta walked %d shards, want 0", got)
	}
	if d := s.SyncDelta(since); d.Full || len(d.Entries) != 1 {
		t.Fatalf("sync delta after a refresh = %+v, want the one refreshed entry", d)
	}
	if got := s.walks.Load() - walks; got != 1 {
		t.Fatalf("SyncDelta after one refresh walked %d shards, want 1", got)
	}
	s.RegisterHealth("relay-00007", "10.0.0.1:1", time.Minute, 0.6)
	walks = s.walks.Load()
	if d := s.ListDelta(since, 0); d.Full || len(d.Entries) != 1 {
		t.Fatalf("changed delta = %+v", d)
	}
	if got := s.walks.Load() - walks; got != 1 {
		t.Fatalf("ListDelta after one change walked %d shards, want 1", got)
	}
	walks = s.walks.Load()
	s.Sweep()
	if got := s.walks.Load() - walks; got != 0 {
		t.Fatalf("Sweep with nothing due walked %d shards, want 0", got)
	}
}
