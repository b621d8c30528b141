package registry

import (
	"context"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"
)

// Benchmarks of the full-snapshot and ranking paths on the table the
// repo benchmark's registry_churn workload preloads: 40k relays with
// seeded health in thousandths (so many health ties, broken by name).
// `make registry-bench-smoke` runs each once.

const benchRelays = 40000

var benchTable = sync.OnceValues(func() (*Server, string) {
	s := &Server{}
	for i := 0; i < benchRelays; i++ {
		health := float64((i*7919)%1000) / 1000
		addr := fmt.Sprintf("10.%d.%d.%d:8081", i>>16&255, i>>8&255, i&255)
		if err := s.RegisterHealth(fmt.Sprintf("relay-%05d", i), addr, time.Hour, health); err != nil {
			panic(err)
		}
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		panic(err)
	}
	go s.Serve(l) // lives as long as the test binary
	return s, l.Addr().String()
})

// BenchmarkFullSync is the first wire Refresh of a fresh mirror: the
// snapshot every new client, restarted client and registry failover
// pulls, from the server's LISTD 0 to the swapped-in map.
func BenchmarkFullSync(b *testing.B) {
	_, addr := benchTable()
	c := NewClient(addr, WithPooledConn())
	defer c.Close()
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m := NewRankedSet()
		if err := m.Refresh(ctx, c); err != nil {
			b.Fatal(err)
		}
		if n := m.Stats().Entries; n != benchRelays {
			b.Fatalf("mirror holds %d entries, want %d", n, benchRelays)
		}
	}
}

// BenchmarkServerFullDelta is the in-process full answer, ListDelta(0, 0).
func BenchmarkServerFullDelta(b *testing.B) {
	s, _ := benchTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if d := s.ListDelta(0, 0); !d.Full || len(d.Entries) != benchRelays {
			b.Fatalf("ListDelta(0, 0) = full %v, %d entries", d.Full, len(d.Entries))
		}
	}
}

// BenchmarkRankedSetTop10 ranks a synced mirror's ten healthiest.
func BenchmarkRankedSetTop10(b *testing.B) {
	_, addr := benchTable()
	c := NewClient(addr)
	m := NewRankedSet()
	if err := m.Refresh(context.Background(), c); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if top := m.Top(10); len(top) != 10 {
			b.Fatalf("Top(10) returned %d entries", len(top))
		}
	}
}

// BenchmarkListRanked10 is the server's bounded-heap top ten.
func BenchmarkListRanked10(b *testing.B) {
	s, _ := benchTable()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if top := s.ListRanked(10); len(top) != 10 {
			b.Fatalf("ListRanked(10) returned %d entries", len(top))
		}
	}
}

// BenchmarkWireListRanked is a one-shot ranked listing over the wire,
// the read fetch -top, fetch -fleet and DiscoverRelays make: the whole
// table (k=0) and the ten healthiest (k=10).
func BenchmarkWireListRanked(b *testing.B) {
	_, addr := benchTable()
	c := NewClient(addr, WithPooledConn())
	defer c.Close()
	ctx := context.Background()
	for _, k := range []int{0, 10} {
		want := k
		if k == 0 {
			want = benchRelays
		}
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got, err := c.ListRanked(ctx, k); err != nil || len(got) != want {
					b.Fatalf("ListRanked(%d) = %d entries, %v", k, len(got), err)
				}
			}
		})
	}
}
