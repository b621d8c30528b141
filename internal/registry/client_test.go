package registry

import (
	"context"
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func startServer(t *testing.T) (*Server, string) {
	t.Helper()
	s := &Server{}
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return s, l.Addr().String()
}

// startClockedServer is startServer on a clock that only advance moves,
// safe to read from the server's session goroutines.
func startClockedServer(t *testing.T) (s *Server, addr string, advance func(time.Duration)) {
	t.Helper()
	var ns atomic.Int64
	ns.Store(time.Unix(1000, 0).UnixNano())
	s = &Server{Clock: func() time.Time { return time.Unix(0, ns.Load()) }}
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return s, l.Addr().String(), func(d time.Duration) { ns.Add(int64(d)) }
}

// waitFor polls cond until it holds, failing the test after 10s.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !cond(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("gave up after 10s waiting for %s", what)
		}
	}
}

// waitRefresh waits until s has accepted another wire registration and
// holds name as seen at the server's current time: a heartbeat reached
// the server after its clock last moved.
func waitRefresh(t *testing.T, s *Server, name string) {
	t.Helper()
	n := s.Registrations.Load()
	waitFor(t, "a refresh of "+name, func() bool {
		if s.Registrations.Load() <= n {
			return false
		}
		all := s.ListAll()
		i := slices.IndexFunc(all, func(e Entry) bool { return e.Name == name })
		return i >= 0 && all[i].LastSeen.Equal(s.now())
	})
}

func TestClientRegisterListRanked(t *testing.T) {
	_, addr := startServer(t)
	c := NewClient(addr, WithTimeout(5*time.Second))
	defer c.Close()
	ctx := context.Background()

	if err := c.RegisterHealth(ctx, "good", "10.0.0.1:1", time.Minute, 0.9); err != nil {
		t.Fatal(err)
	}
	if err := c.RegisterHealth(ctx, "bad", "10.0.0.2:1", time.Minute, 0.2); err != nil {
		t.Fatal(err)
	}
	if err := c.Register(ctx, "mute", "10.0.0.3:1", time.Minute); err != nil {
		t.Fatal(err)
	}

	got, err := c.ListRanked(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0].Name != "good" || got[1].Name != "bad" || got[2].Name != "mute" {
		t.Fatalf("ranked = %+v", got)
	}
	if got[2].Health != HealthUnreported {
		t.Fatalf("unreported health came back as %v", got[2].Health)
	}
	if got[0].Down {
		t.Fatal("live entry parsed as down")
	}

	top, err := c.ListRanked(ctx, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(top) != 2 || top[0].Name != "good" || top[1].Name != "bad" {
		t.Fatalf("top 2 = %+v", top)
	}
}

// The wire listing must tell the truth about down entries: served during grace
// with state "down", ranked last, parsed into Entry.Down.
func TestClientSeesDownState(t *testing.T) {
	now := time.Unix(1000, 0)
	s := &Server{Clock: func() time.Time { return now }}
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := NewClient(l.Addr().String())
	defer c.Close()
	ctx := context.Background()

	c.RegisterHealth(ctx, "dying", "x:1", 10*time.Second, 0.9)
	c.RegisterHealth(ctx, "alive", "y:1", 10*time.Minute, 0.1)
	now = now.Add(30 * time.Second) // "dying" lapses, inside grace

	got, err := c.ListRanked(ctx, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("ranked = %+v", got)
	}
	if got[0].Name != "alive" || got[0].Down {
		t.Fatalf("live entry first, up: %+v", got[0])
	}
	if got[1].Name != "dying" || !got[1].Down {
		t.Fatalf("down entry must be served last with Down set: %+v", got[1])
	}
}

// The one-shot wire listing is the server's ranked view: for every k,
// ListRanked (one full LISTD answer, ranked by the client) returns what
// rankedAll(k) holds, field for field and in order — an entry down
// inside its grace last, unreported health below every score, equal
// health broken by name, metrics addresses carried where reported.
func TestWireListRankedMatchesRankedAll(t *testing.T) {
	s, addr, advance := startClockedServer(t)
	s.RegisterFull("lapsing", "10.0.0.1:1", time.Second, 0.99, "10.0.0.1:2")
	advance(2 * time.Second) // lapsed, still inside its 2s grace
	for i, r := range []struct {
		name   string
		health float64
		maddr  string
	}{
		{"tie-b", 0.5, "10.0.1.2:2"}, {"tie-a", 0.5, ""}, {"best", 0.95, "10.0.1.3:2"},
		{"mute", HealthUnreported, "10.0.1.4:2"}, {"mute-too", HealthUnreported, ""}, {"low", 0.125, ""},
	} {
		s.RegisterFull(r.name, fmt.Sprintf("10.0.1.%d:1", i), time.Minute, r.health, r.maddr)
	}
	c := NewClient(addr, WithPooledConn())
	defer c.Close()
	// wire keeps the fields a listing line carries.
	wire := func(e Entry) Entry {
		return Entry{Name: e.Name, Addr: e.Addr, Health: e.Health, Down: e.Down, MetricsAddr: e.MetricsAddr}
	}
	same := func(a, b Entry) bool { return wire(a) == wire(b) }
	const n = 7
	if all := s.rankedAll(0); len(all) != n || all[n-1].Name != "lapsing" || !all[n-1].Down {
		t.Fatalf("table = %+v, want %d entries with lapsing down and last", all, n)
	}
	for _, k := range []int{0, 1, 3, n, n + 1} {
		got, err := c.ListRanked(context.Background(), k)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		if want := s.rankedAll(k); !slices.EqualFunc(got, want, same) {
			t.Fatalf("k=%d:\n wire %+v\nserver %+v", k, got, want)
		}
	}
}

func TestClientPooledConnSurvivesStaleConn(t *testing.T) {
	// A short server-side idle timeout closes the session between calls;
	// the pooled client must notice the stale conn and redial
	// transparently without burning a retry or surfacing an error.
	s := &Server{Timeout: 200 * time.Millisecond}
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	c := NewClient(l.Addr().String(), WithPooledConn())
	defer c.Close()
	ctx := context.Background()

	if err := c.Register(ctx, "a", "x:1", time.Minute); err != nil {
		t.Fatal(err)
	}
	time.Sleep(500 * time.Millisecond) // server idles the session out

	if err := c.Register(ctx, "b", "y:1", time.Minute); err != nil {
		t.Fatalf("pooled client did not recover from stale conn: %v", err)
	}
	if got := s.List(); len(got) != 2 {
		t.Fatalf("post-redial list = %+v", got)
	}
}

func TestClientFallbackPeers(t *testing.T) {
	s, addr := startServer(t)
	// Primary is a dead port; fallback is live.
	c := NewClient("127.0.0.1:1", WithFallbackPeers(addr), WithTimeout(2*time.Second))
	defer c.Close()
	if err := c.Register(context.Background(), "via-fallback", "x:1", time.Minute); err != nil {
		t.Fatalf("fallback not used: %v", err)
	}
	if got := s.List(); len(got) != 1 || got[0].Name != "via-fallback" {
		t.Fatalf("list = %+v", got)
	}
}

func TestClientUnavailable(t *testing.T) {
	c := NewClient("127.0.0.1:1", WithTimeout(500*time.Millisecond))
	defer c.Close()
	_, err := c.ListRanked(context.Background(), 0)
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("want ErrUnavailable, got %v", err)
	}
}

func TestClientRejectionIsNotRetried(t *testing.T) {
	_, addr := startServer(t)
	c := NewClient(addr, WithRetry(3, 10*time.Millisecond))
	defer c.Close()
	start := time.Now()
	err := c.RegisterHealth(context.Background(), "bad name", "x:1", time.Minute, 0.5)
	if !errors.Is(err, ErrBadName) {
		t.Fatalf("want ErrBadName, got %v", err)
	}
	if time.Since(start) > 5*time.Second {
		t.Fatal("client-side validation took the retry path")
	}
}

func TestClientContextCancellation(t *testing.T) {
	c := NewClient("127.0.0.1:1", WithRetry(10, time.Second))
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, err := c.ListRanked(ctx, 0)
	if err == nil {
		t.Fatal("expected error")
	}
	if time.Since(start) > 3*time.Second {
		t.Fatalf("cancellation did not cut the retry loop short (%v)", time.Since(start))
	}
}

func TestClientDeltaAndEpoch(t *testing.T) {
	s, addr := startServer(t)
	c := NewClient(addr, WithPooledConn())
	defer c.Close()
	ctx := context.Background()

	c.RegisterHealth(ctx, "a", "x:1", time.Minute, 0.7)
	d, err := c.ListDelta(ctx, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !d.Full || len(d.Entries) != 1 || d.Entries[0].Name != "a" {
		t.Fatalf("first delta = %+v", d)
	}

	// Steady state: pure heartbeat, delta is empty.
	c.RegisterHealth(ctx, "a", "x:1", time.Minute, 0.7)
	d2, err := c.ListDelta(ctx, d.Epoch, 0)
	if err != nil {
		t.Fatal(err)
	}
	if d2.Full || len(d2.Entries) != 0 {
		t.Fatalf("steady-state delta = %+v", d2)
	}

	if d2.Epoch != d.Epoch || d2.Epoch != s.Epoch() {
		t.Fatalf("steady-state delta at epoch %d, first at %d, server at %d", d2.Epoch, d.Epoch, s.Epoch())
	}
}

func TestClientStartHeartbeat(t *testing.T) {
	s, addr, advance := startClockedServer(t)
	c := NewClient(addr, WithPooledConn())
	defer c.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()

	// Wire TTLs are whole seconds (1500ms truncates to 1s); heartbeats
	// fire every TTL/3 = 500ms. The registry's clock moves to just short
	// of the first registration's expiry, a heartbeat lands, and the
	// clock moves past that expiry: the entry survives only because the
	// ticker refreshed it.
	hb, err := c.StartHeartbeat(ctx, "hb", "x:1", "", 1500*time.Millisecond, func() float64 { return 0.8 })
	if err != nil {
		t.Fatal(err)
	}
	advance(900 * time.Millisecond)
	waitRefresh(t, s, "hb")
	advance(500 * time.Millisecond)
	if got := s.List(); len(got) != 1 || got[0].Name != "hb" || got[0].Health != 0.8 {
		t.Fatalf("heartbeat entry = %+v", got)
	}
	if !hb.OK() || hb.Err() != nil || hb.LastOK().IsZero() {
		t.Fatalf("heartbeat state: ok=%v err=%v lastOK=%v", hb.OK(), hb.Err(), hb.LastOK())
	}
}

func TestRankedSetRefreshOverWire(t *testing.T) {
	_, addr := startServer(t)
	c := NewClient(addr, WithPooledConn())
	defer c.Close()
	ctx := context.Background()

	c.RegisterHealth(ctx, "a", "x:1", time.Minute, 0.9)
	m := NewRankedSet()
	if err := m.Refresh(ctx, c); err != nil {
		t.Fatal(err)
	}
	c.RegisterHealth(ctx, "b", "y:1", time.Minute, 0.3)
	if err := m.Refresh(ctx, c); err != nil {
		t.Fatal(err)
	}
	top := m.Top(0)
	if len(top) != 2 || top[0].Name != "a" {
		t.Fatalf("top = %+v", top)
	}
	st := m.Stats()
	if st.Fulls != 1 || st.Refreshes != 2 {
		t.Fatalf("stats = %+v", st)
	}
}

// Discovery survives losing a registry: the relay heartbeats to A and B
// through one StartHeartbeat, A dies, and ranked discovery through a
// fallback-aware client finds the relay on B, which heard it directly.
func TestPeerFailoverDiscovery(t *testing.T) {
	sA := &Server{}
	lA, err := sA.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer lA.Close()
	sB, addrB := startServer(t)
	addrA := lA.Addr().String()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()

	relay := NewClient(addrA, WithPooledConn(), WithFallbackPeers(addrB))
	defer relay.Close()
	if _, err := relay.StartHeartbeat(ctx, "survivor-relay", "10.0.0.9:1", "10.0.0.9:2", time.Minute, func() float64 { return 0.7 }); err != nil {
		t.Fatal(err)
	}
	for name, s := range map[string]*Server{"A": sA, "B": sB} {
		if got := s.List(); len(got) != 1 || got[0].Name != "survivor-relay" {
			t.Fatalf("registry %s after the first heartbeat = %+v", name, got)
		}
	}

	lA.Close() // registry A dies

	// fetch -top K with -registry addrA,addrB: primary dead, fallback up.
	c := NewClient(addrA, WithFallbackPeers(addrB), WithTimeout(2*time.Second))
	defer c.Close()
	got, err := c.ListRanked(ctx, 3)
	if err != nil {
		t.Fatalf("discovery failed after losing a registry: %v", err)
	}
	if len(got) != 1 || got[0].Name != "survivor-relay" || got[0].Addr != "10.0.0.9:1" || got[0].Health != 0.7 ||
		got[0].MetricsAddr != "10.0.0.9:2" {
		t.Fatalf("survivor view = %+v", got)
	}
}

// A registry that is down when the relay starts does not stop it
// starting, and hears the relay from the first heartbeat tick after it
// comes up: by then A has taken at most one more refresh (two, allowing
// for the two tickers' goroutines to be scheduled a tick apart).
func TestHeartbeatReachesRegistryThatComesUp(t *testing.T) {
	sA, addrA := startServer(t)
	lB, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrB := lB.Addr().String()
	lB.Close() // B is down at startup
	ctx, stop := context.WithCancel(context.Background())
	defer stop()

	c := NewClient(addrA, WithPooledConn(), WithFallbackPeers(addrB))
	defer c.Close()
	hb, err := c.StartHeartbeat(ctx, "late", "10.0.0.9:1", "", time.Second, nil) // a tick every 333ms
	if err != nil {
		t.Fatalf("startup failed with one registry of two up: %v", err)
	}
	if !hb.OK() || hb.Err() == nil {
		t.Fatalf("state with B down: ok=%v err=%v, want ok and B's error", hb.OK(), hb.Err())
	}

	sB := &Server{}
	if lB, err = sB.ServeAddr(addrB); err != nil {
		t.Fatal(err)
	}
	defer lB.Close()
	up := sA.Registrations.Load()
	waitFor(t, "B to hear the relay", func() bool { return sB.Registrations.Load() > 0 })
	if n := sA.Registrations.Load() - up; n > 2 {
		t.Fatalf("B heard the relay %d refreshes of A after it came up, want within one tick", n)
	}
	if got := sB.List(); len(got) != 1 || got[0].Name != "late" {
		t.Fatalf("B lists %+v", got)
	}
	waitFor(t, "the heartbeat state to clear B's error", func() bool { return hb.Err() == nil })
}

// Startup fails only when every registry refuses, and then reports each.
func TestHeartbeatFailsOnlyWhenEveryRegistryRefuses(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	c := NewClient("127.0.0.1:1", WithFallbackPeers("127.0.0.1:2"))
	hb, err := c.StartHeartbeat(ctx, "r", "10.0.0.9:1", "", time.Minute, nil)
	if err == nil || hb.OK() {
		t.Fatalf("both registries down: err=%v ok=%v", err, hb.OK())
	}
	for _, addr := range []string{"127.0.0.1:1", "127.0.0.1:2"} {
		if !errors.Is(err, ErrUnavailable) || !strings.Contains(err.Error(), addr) {
			t.Fatalf("startup error %q does not name %s", err, addr)
		}
	}
}

// A RankedSet whose registry dies mid-stream fails over, through
// WithFallbackPeers, to a registry with another history. Its cursor is
// from the first registry's epoch space, so it must get a full snapshot,
// not the second registry's changes past a number that means nothing
// there. The same holds for a registry restarted at the same address,
// once its new history is longer than the old one.
func TestRankedSetFailoverGetsFullDelta(t *testing.T) {
	sA := &Server{}
	lA, err := sA.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addrA := lA.Addr().String()
	sB, addrB := startServer(t)
	sA.Register("only-a", "a:1", time.Hour)
	for i := 0; i < 50; i++ {
		sB.Register(fmt.Sprintf("b-%d", i), "b:1", time.Hour)
	}

	c := NewClient(addrA, WithFallbackPeers(addrB))
	defer c.Close()
	m := NewRankedSet()
	refresh := func(from *Server, step string) {
		t.Helper()
		fulls := m.Stats().Fulls
		if err := m.Refresh(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		if m.Stats().Fulls != fulls+1 {
			t.Fatalf("%s: refresh was not a full snapshot", step)
		}
		names := func(es []Entry) []string {
			var out []string
			for _, e := range es {
				out = append(out, e.Name)
			}
			slices.Sort(out)
			return out
		}
		if got, want := names(m.All()), names(from.ListAll()); !slices.Equal(got, want) {
			t.Fatalf("%s: mirror holds %v, registry %v", step, got, want)
		}
	}
	refresh(sA, "first sync")

	// A restarts at the same address with a longer, different history.
	lA.Close()
	sA2 := &Server{}
	if lA, err = sA2.ServeAddr(addrA); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		sA2.Register(fmt.Sprintf("a2-%d", i), "a:2", time.Hour)
	}
	refresh(sA2, "after A restarted")

	lA.Close() // A dies for good
	refresh(sB, "after failing over to B")
}
