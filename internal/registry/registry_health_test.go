package registry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// clockServer returns a server on a controllable clock.
func clockServer(start time.Time) (*Server, *time.Time) {
	now := start
	s := &Server{Clock: func() time.Time { return now }}
	return s, &now
}

func TestExpiredEntryMarkedDownThenForgotten(t *testing.T) {
	s, now := clockServer(time.Unix(1000, 0))
	if err := s.Register("r1", "127.0.0.1:9000", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	// Live inside the TTL.
	if got := s.List(); len(got) != 1 {
		t.Fatalf("live list = %v", got)
	}
	// TTL lapses: excluded from List but visible as down in ListAll.
	*now = now.Add(11 * time.Second)
	if got := s.List(); len(got) != 0 {
		t.Fatalf("lapsed entry still listed: %v", got)
	}
	all := s.ListAll()
	if len(all) != 1 || !all[0].Down {
		t.Fatalf("ListAll after lapse = %+v, want one down entry", all)
	}
	if s.Downs.Load() != 1 {
		t.Fatalf("Downs = %d, want 1", s.Downs.Load())
	}
	// A refresh resurrects it.
	if err := s.Register("r1", "127.0.0.1:9000", 10*time.Second); err != nil {
		t.Fatal(err)
	}
	if got := s.List(); len(got) != 1 || got[0].Down {
		t.Fatalf("refreshed entry not live: %v", got)
	}
	// Lapse again and outlast the grace: forgotten entirely.
	*now = now.Add(11 * time.Second)
	s.List() // marks down
	*now = now.Add(downGraceFactor*10*time.Second + time.Second)
	if all := s.ListAll(); len(all) != 0 {
		t.Fatalf("entry survived the grace period: %+v", all)
	}
}

func TestListRankedOrdersByHealth(t *testing.T) {
	s, _ := clockServer(time.Unix(1000, 0))
	check := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	check(s.RegisterHealth("mid", "a:1", time.Minute, 0.5))
	check(s.RegisterHealth("best", "a:2", time.Minute, 0.9))
	check(s.RegisterHealth("worst", "a:3", time.Minute, 0.1))
	check(s.Register("silent", "a:4", time.Minute)) // unreported ranks last

	got := s.ListRanked(0)
	want := []string{"best", "mid", "worst", "silent"}
	if len(got) != len(want) {
		t.Fatalf("ranked %d entries, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.Name != want[i] {
			t.Fatalf("rank %d = %s, want %s (full: %+v)", i, e.Name, want[i], got)
		}
	}
	if top := s.ListRanked(2); len(top) != 2 || top[0].Name != "best" || top[1].Name != "mid" {
		t.Fatalf("ListRanked(2) = %+v", top)
	}
	// LastSeen is recorded.
	if got[0].LastSeen.IsZero() {
		t.Fatal("LastSeen not recorded")
	}
}

func TestHealthClampAndValidation(t *testing.T) {
	s, _ := clockServer(time.Unix(1000, 0))
	if err := s.RegisterHealth("r", "a:1", time.Minute, 7.0); err != nil {
		t.Fatal(err)
	}
	if got := s.List()[0].Health; got != 1 {
		t.Fatalf("health clamped to %v, want 1", got)
	}
	if err := s.Register("", "a:1", time.Minute); !errors.Is(err, ErrBadName) {
		t.Fatalf("empty name accepted: %v", err)
	}
}

func TestWireRegisterHealthAndListRanked(t *testing.T) {
	s := &Server{}
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()

	c, ctx := NewClient(addr), context.Background()
	if err := c.RegisterHealth(ctx, "good", "127.0.0.1:1", time.Minute, 0.95); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterHealth(ctx, "bad", "127.0.0.1:2", time.Minute, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(ctx, "plain", "127.0.0.1:3", time.Minute); err != nil {
		t.Fatal(err)
	}

	// Plain LIST is unchanged: name-sorted, no health on the wire.
	plain, err := c.List(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(plain) != 3 || plain[0].Name != "bad" {
		t.Fatalf("LIST = %+v", plain)
	}

	ranked, err := c.ListRanked(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(ranked) != 2 || ranked[0].Name != "good" || ranked[1].Name != "bad" {
		t.Fatalf("LISTH 2 = %+v", ranked)
	}
	if ranked[0].Health < 0.94 || ranked[0].Health > 0.96 {
		t.Fatalf("health lost on the wire: %+v", ranked[0])
	}

	if s.Lists.Load() != 2 || s.Registrations.Load() != 3 {
		t.Fatalf("wire counters lists=%d regs=%d, want 2/3", s.Lists.Load(), s.Registrations.Load())
	}
}

func TestStartHeartbeatReportsHealthAndState(t *testing.T) {
	s := &Server{}
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	score := 0.77
	hb, err := NewClient(l.Addr().String()).StartHeartbeat(ctx, "r1", "127.0.0.1:9", 30*time.Second,
		func() float64 { return score })
	if err != nil {
		t.Fatal(err)
	}
	if !hb.OK() || hb.LastOK().IsZero() || hb.Err() != nil {
		t.Fatalf("heartbeat state after first register: ok=%v lastOK=%v err=%v",
			hb.OK(), hb.LastOK(), hb.Err())
	}
	got := s.ListRanked(0)
	if len(got) != 1 || got[0].Health != 0.77 {
		t.Fatalf("registered health = %+v, want 0.77", got)
	}
}

func TestStartHeartbeatFailsFastOnBadRegistry(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	hb, err := NewClient("127.0.0.1:1").StartHeartbeat(ctx, "r1", "127.0.0.1:9", time.Minute, nil)
	if err == nil {
		t.Fatal("expected connection error")
	}
	if hb.OK() || hb.Err() == nil {
		t.Fatalf("state after failure: ok=%v err=%v", hb.OK(), hb.Err())
	}
}

// The bounded heap behind ListRanked(k) must pick exactly what the full
// sort would: for random tables with health ties, unreported health and
// down entries, the top k is the first k of the full ranking.
func TestListRankedTopKMatchesFullSort(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		s, now := clockServer(time.Unix(1000, 0))
		s.NumShards = 1 + rng.Intn(8)
		n := 2 + rng.Intn(60)
		for i := 0; i < n; i++ {
			ttl := time.Hour
			if rng.Intn(4) == 0 {
				ttl = time.Second // lapses below: down, ranked after every live entry
			}
			health := float64(rng.Intn(4)) / 3 // few values: many ties, broken by name
			if rng.Intn(5) == 0 {
				health = HealthUnreported
			}
			s.RegisterHealth(fmt.Sprintf("relay-%d", rng.Intn(1000)), "x:1", ttl, health)
		}
		*now = now.Add(time.Minute)
		same := func(a, b Entry) bool { return a.Name == b.Name && a.Health == b.Health && a.Down == b.Down }
		for _, list := range []func(int) []Entry{s.ListRanked, s.rankedAll} {
			full := list(0)
			for _, k := range []int{1, 10, len(full) - 1, len(full), len(full) + 5} {
				if got, want := list(k), truncate(full, k); !slices.EqualFunc(got, want, same) {
					t.Fatalf("seed %d, k=%d of %d:\n got %+v\nwant %+v", seed, k, len(full), got, want)
				}
			}
		}
	}
}
