package registry

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// The full snapshot a mirror starts from, and what a mirror ranks.

// mirrored is what the wire carries of an entry.
type mirrored struct {
	addr, maddr string
	health      float64
	down        bool
}

func mirrorView(es []Entry) map[string]mirrored {
	out := make(map[string]mirrored, len(es))
	for _, e := range es {
		out[e.Name] = mirrored{e.Addr, e.MetricsAddr, e.Health, e.Down}
	}
	return out
}

// serveClocked serves a server of the given shard count on a clock
// that only advance moves, through wrap's listener when wrap is set.
func serveClocked(t *testing.T, shards int, wrap func(net.Listener) net.Listener) (s *Server, addr string, advance func(time.Duration)) {
	t.Helper()
	var ns atomic.Int64
	ns.Store(time.Unix(1000, 0).UnixNano())
	s = &Server{NumShards: shards, Clock: func() time.Time { return time.Unix(0, ns.Load()) }}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	if wrap != nil {
		l = wrap(l)
	}
	go s.Serve(l)
	return s, l.Addr().String(), func(d time.Duration) { ns.Add(int64(d)) }
}

// A mirror's first wire Refresh holds exactly what the table holds —
// live entries, down ones inside their grace, none of the tombstoned —
// whatever the shard count, though a full LISTD now arrives shard by
// shard instead of ranked.
func TestFullSyncEqualsListAll(t *testing.T) {
	for _, shards := range []int{1, 8, 32} {
		t.Run(fmt.Sprintf("shards%d", shards), func(t *testing.T) {
			s, addr, advance := serveClocked(t, shards, nil)
			for i := 0; i < 600; i++ {
				ttl := time.Hour
				switch i % 5 {
				case 1:
					ttl = time.Second // down at the first sweep, tombstoned at the second
				case 2:
					ttl = 4 * time.Second // down at the second sweep, inside its grace
				}
				health := float64(i%4) / 4 // ties, broken by name
				if i%7 == 0 {
					health = HealthUnreported
				}
				maddr := ""
				if i%3 == 0 {
					maddr = fmt.Sprintf("10.1.%d.%d:9090", i/256, i%256)
				}
				if err := s.RegisterFull(fmt.Sprintf("relay-%04d", i), fmt.Sprintf("10.0.%d.%d:8081", i/256, i%256), ttl, health, maddr); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 600; i += 11 {
				s.Remove(fmt.Sprintf("relay-%04d", i))
			}
			advance(2 * time.Second)
			s.Sweep()
			advance(3 * time.Second)
			s.Sweep()
			st := s.Stats()
			if st.Live == 0 || st.Down == 0 || st.Tombstones == 0 {
				t.Fatalf("table is not a mix of live, down and tombstoned: %+v", st)
			}

			c := NewClient(addr)
			m := NewRankedSet()
			if err := m.Refresh(context.Background(), c); err != nil {
				t.Fatal(err)
			}
			got, want := mirrorView(m.All()), mirrorView(s.ListAll())
			if len(got) != len(want) {
				t.Fatalf("mirror holds %d entries, the table %d", len(got), len(want))
			}
			for name, w := range want {
				if g, ok := got[name]; !ok || g != w {
					t.Fatalf("%s: mirror holds %+v (present %v), the table %+v", name, g, ok, w)
				}
			}
			if ms := m.Stats(); ms.Fulls != 1 || ms.Changes != int64(len(want)) || m.Epoch() != s.Epoch() {
				t.Fatalf("mirror stats %+v at epoch %d, want 1 full of %d lines at the server's %d", ms, m.Epoch(), len(want), s.Epoch())
			}
		})
	}
}

// cutListener wraps a server's listener. The first connection it
// accepts closes itself once it has written limit bytes, cutting short
// the write that crosses the limit, and calls cut (when set) just
// before it closes; later connections are whole.
type cutListener struct {
	net.Listener
	limit    int
	cut      func()
	accepted atomic.Int32
}

func (l *cutListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil || l.accepted.Add(1) > 1 {
		return c, err
	}
	return &cutConn{Conn: c, left: l.limit, cut: l.cut}, nil
}

// cutConn is written by its session's goroutine alone.
type cutConn struct {
	net.Conn
	left int
	cut  func()
}

func (c *cutConn) Write(p []byte) (int, error) {
	if len(p) <= c.left {
		c.left -= len(p)
		return c.Conn.Write(p)
	}
	n, _ := c.Conn.Write(p[:c.left])
	c.left = 0
	if c.cut != nil { // before the close: the client's retry sees it done
		c.cut()
		c.cut = nil
	}
	c.Conn.Close()
	return n, net.ErrClosed
}

// A server that hangs up halfway through a full snapshot fails the
// Refresh and leaves the mirror as it was: every entry, the epoch, the
// counters.
func TestFullSyncCutLeavesMirror(t *testing.T) {
	sA, addrA := startServer(t)
	for i := 0; i < 50; i++ {
		sA.RegisterHealth(fmt.Sprintf("a-%02d", i), "a:1", time.Hour, 0.5)
	}
	m := NewRankedSet()
	if err := m.Refresh(context.Background(), NewClient(addrA)); err != nil {
		t.Fatal(err)
	}
	before, epoch, stats := m.All(), m.Epoch(), m.Stats()

	// B's history is another epoch space: the mirror's cursor gets a
	// full snapshot, which B's connection cuts a third of the way in.
	sB, addrB, _ := serveClocked(t, 8, func(l net.Listener) net.Listener { return &cutListener{Listener: l, limit: 3000} })
	for i := 0; i < 300; i++ {
		sB.RegisterHealth(fmt.Sprintf("b-%03d", i), "b:1", time.Hour, 0.25)
	}
	err := m.Refresh(context.Background(), NewClient(addrB))
	if !errors.Is(err, ErrUnavailable) {
		t.Fatalf("Refresh through a cut snapshot returned %v, want ErrUnavailable", err)
	}
	if got := m.All(); !slices.Equal(got, before) {
		t.Fatalf("a cut snapshot changed the mirror: %d entries, was %d", len(got), len(before))
	}
	if m.Epoch() != epoch || m.Stats() != stats {
		t.Fatalf("a cut snapshot moved the mirror to epoch %d, stats %+v; was %d, %+v", m.Epoch(), m.Stats(), epoch, stats)
	}
}

// A pooled connection that dies halfway through a full snapshot is
// redialed and the request run again; the mirror is the second answer
// alone. Between the two answers the table changes completely, so an
// entry of the first half-answer left in the mirror shows.
func TestFullSyncRetryStartsOver(t *testing.T) {
	s := &Server{NumShards: 8}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go s.Serve(&cutListener{Listener: l, limit: len("OK\n") + 4000, cut: func() {
		for i := 0; i < 300; i++ {
			s.Remove(fmt.Sprintf("old-%03d", i))
			s.RegisterHealth(fmt.Sprintf("new-%03d", i), "n:1", time.Hour, 0.75)
		}
	}})
	for i := 0; i < 300; i++ {
		s.RegisterHealth(fmt.Sprintf("old-%03d", i), "o:1", time.Hour, 0.5)
	}
	c := NewClient(l.Addr().String(), WithPooledConn())
	defer c.Close()
	ctx := context.Background()
	if err := c.Register(ctx, "probe", "p:1", time.Hour); err != nil { // pools the connection the snapshot dies on
		t.Fatal(err)
	}
	m := NewRankedSet()
	if err := m.Refresh(ctx, c); err != nil {
		t.Fatalf("Refresh over a stale pooled connection: %v", err)
	}
	got, want := mirrorView(m.All()), mirrorView(s.ListAll())
	for name := range got {
		if _, ok := want[name]; !ok {
			t.Fatalf("mirror holds %s, which the retried answer did not carry", name)
		}
	}
	if len(got) != len(want) || len(want) != 301 {
		t.Fatalf("mirror holds %d entries, the table %d, want 301", len(got), len(want))
	}
	if st := m.Stats(); st.Fulls != 1 || st.Refreshes != 1 || st.Changes != 301 {
		t.Fatalf("mirror stats %+v, want one full refresh of 301 lines", st)
	}
}

// Top(k) keeps a bounded heap; it must pick exactly the first k of the
// full ranking of the live entries.
func TestRankedSetTopMatchesFullSort(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var d Delta
		d.Full = true
		for i, n := 0, 2+rng.Intn(80); i < n; i++ {
			e := Entry{Name: fmt.Sprintf("relay-%d", rng.Intn(1000)), Addr: "x:1", Health: float64(rng.Intn(4)) / 3}
			if rng.Intn(5) == 0 {
				e.Health = HealthUnreported
			}
			e.Down = rng.Intn(4) == 0
			d.Entries = append(d.Entries, DeltaEntry{Entry: e})
		}
		m := NewRankedSet()
		m.Apply(d)
		var live []Entry
		for _, e := range m.All() {
			if !e.Down {
				live = append(live, e)
			}
		}
		sortRanked(live)
		n := m.Stats().Entries
		for _, k := range []int{1, 10, len(live), n, n + 1} {
			if got, want := m.Top(k), truncate(live, k); !slices.Equal(got, want) {
				t.Fatalf("seed %d, Top(%d) of %d (%d live):\n got %+v\nwant %+v", seed, k, n, len(live), got, want)
			}
		}
	}
}

// Every rune the wire splits on is refused in a name, so no accepted
// name can break the mirrors' parsers. These four once passed the
// registry's own check and then failed every client's Refresh.
func TestRegisterRejectsEveryWireSpace(t *testing.T) {
	var s Server
	ctx := context.Background()
	c := NewClient("127.0.0.1:1") // refused before dialing
	for _, name := range []string{"a\vb", "a\fb", "a\u0085b", "a\u00a0b"} {
		if err := s.Register(name, "h:1", time.Minute); !errors.Is(err, ErrBadName) {
			t.Errorf("Server.Register(%q) = %v, want ErrBadName", name, err)
		}
		if err := c.Register(ctx, name, "h:1", time.Minute); !errors.Is(err, ErrBadName) {
			t.Errorf("Client.Register(%q) = %v, want ErrBadName", name, err)
		}
		if err := s.RegisterFull("ok", "h:1", time.Minute, 0.5, name); !errors.Is(err, ErrBadName) {
			t.Errorf("RegisterFull with metrics addr %q = %v, want ErrBadName", name, err)
		}
	}
	if got := s.ListAll(); len(got) != 0 {
		t.Fatalf("table holds %+v", got)
	}
}

// wirePieces are what the random tokens below are made of: ordinary
// token bytes, multi-byte and invisible runes, invalid UTF-8 (a lone
// 0x85 and 0xC2 among them, which together spell U+0085), and every
// rune unicode.IsSpace reports.
var wirePieces = []string{
	"a", "Z", "7", ".", ":", "-", "_", "/", "+", "=", "\x00", "\x7f",
	"\u00e9", "\u4e16", "\u200b", "\ufeff", "\xff", "\x85", "\xc2",
	"\t", "\n", "\v", "\f", "\r", " ", "\u0085", "\u00a0", "\u1680",
	"\u2000", "\u2007", "\u200a", "\u2028", "\u2029", "\u202f", "\u205f", "\u3000",
}

func randomToken(rng *rand.Rand) string {
	var b strings.Builder
	for i, n := 0, rng.Intn(6); i < n; i++ {
		b.WriteString(wirePieces[rng.Intn(len(wirePieces))])
	}
	return b.String()
}

// Whatever name, address and metrics address RegisterFull accepts, a
// mirror reads back unchanged: in a full snapshot and in an incremental
// delta.
func TestAcceptedTokensSurviveListD(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	s, addr := startServer(t)
	want := map[string]mirrored{}
	register := func(n int) {
		for accepted := 0; accepted < n; {
			name, a, maddr := randomToken(rng), randomToken(rng), randomToken(rng)
			health := float64(rng.Intn(1001)) / 1000
			if s.RegisterFull(name, a, time.Hour, health, maddr) != nil {
				continue
			}
			want[name] = mirrored{a, maddr, health, false}
			accepted++
		}
	}
	c := NewClient(addr, WithPooledConn())
	defer c.Close()
	m := NewRankedSet()
	for _, n := range []int{500, 200} { // a full snapshot, then a delta
		register(n)
		if err := m.Refresh(context.Background(), c); err != nil {
			t.Fatal(err)
		}
		got := mirrorView(m.All())
		if len(got) != len(want) {
			t.Fatalf("mirror holds %d names, registered %d", len(got), len(want))
		}
		for name, w := range want {
			if g := got[name]; g != w {
				t.Fatalf("%q: mirror holds %+v, registered %+v", name, g, w)
			}
		}
	}
	if st := m.Stats(); st.Fulls != 1 || st.Refreshes != 2 {
		t.Fatalf("mirror stats %+v, want a full refresh then a delta", st)
	}
}
