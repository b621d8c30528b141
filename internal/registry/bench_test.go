package registry

import (
	"context"
	"fmt"
	"runtime"
	"testing"
	"time"
)

// Microbenchmarks behind `make bench-json` (filter: Registry). The
// shard benchmarks quantify the tentpole directly: parallel REGISTER
// throughput on one stripe vs the default 32.

func benchRegisterParallel(b *testing.B, shards int) {
	s := Server{NumShards: shards}
	// Preload so scans and registers contend on a realistic table.
	for i := 0; i < 10000; i++ {
		s.RegisterHealth(fmt.Sprintf("relay-%05d", i), "10.0.0.1:1", time.Minute, 0.5)
	}
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.RegisterHealth(fmt.Sprintf("relay-%05d", i%10000), "10.0.0.1:1", time.Minute, 0.5)
			i++
		}
	})
}

func BenchmarkRegistryRegisterSingleShard(b *testing.B) { benchRegisterParallel(b, 1) }
func BenchmarkRegistryRegisterSharded(b *testing.B)     { benchRegisterParallel(b, DefaultShards) }

// Registers racing a continuous full-table scanner: the case where the
// single mutex design collapses (every LISTH holds the one lock for the
// whole scan).
func benchRegisterUnderScan(b *testing.B, shards int) {
	s := Server{NumShards: shards}
	for i := 0; i < 10000; i++ {
		s.RegisterHealth(fmt.Sprintf("relay-%05d", i), "10.0.0.1:1", time.Minute, 0.5)
	}
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
				s.ListRanked(0)
			}
		}
	}()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		i := 0
		for pb.Next() {
			s.RegisterHealth(fmt.Sprintf("relay-%05d", i%10000), "10.0.0.1:1", time.Minute, 0.5)
			i++
		}
	})
}

func BenchmarkRegistryRegisterUnderScanSingleShard(b *testing.B) { benchRegisterUnderScan(b, 1) }
func BenchmarkRegistryRegisterUnderScanSharded(b *testing.B) {
	benchRegisterUnderScan(b, DefaultShards)
}

// Steady-state delta poll against a 100k table where nothing material
// changed — the response is a single EPOCH line; compare with the full
// ranked scan it replaces.
func BenchmarkRegistryListDeltaSteadyState(b *testing.B) {
	var s Server
	for i := 0; i < 100000; i++ {
		s.RegisterHealth(fmt.Sprintf("relay-%06d", i), "10.0.0.1:1", time.Minute, 0.5)
	}
	since := s.Epoch()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		d := s.ListDelta(since, 0)
		if len(d.Entries) != 0 {
			b.Fatalf("unexpected delta: %d entries", len(d.Entries))
		}
	}
}

// The ceilings the benchmark above only archives, asserted: a quiet
// poll of a 100k table allocates nothing, and a heartbeat on a pooled
// connection — client and server side together — stays under 1 KB (it
// was 4.3 KB while the client made a bufio.Writer per command).
func TestSteadyStateAllocCeilings(t *testing.T) {
	s, addr := startServer(t)
	for i := 0; i < 100000; i++ {
		s.RegisterHealth(fmt.Sprintf("relay-%06d", i), "10.0.0.1:1", time.Minute, 0.5)
	}
	since := s.Epoch()
	if got := testing.AllocsPerRun(100, func() { s.ListDelta(since, 0) }); got != 0 {
		t.Errorf("quiet ListDelta on 100k entries: %v allocs, want 0", got)
	}

	c := NewClient(addr, WithPooledConn())
	defer c.Close()
	ctx := context.Background()
	heartbeat := func() {
		if err := c.RegisterHealth(ctx, "relay-000042", "10.0.0.1:1", time.Minute, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	heartbeat() // dial
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		heartbeat()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / rounds; got >= 1024 {
		t.Errorf("pooled wire RegisterHealth: %d B per heartbeat, want < 1024", got)
	} else {
		t.Logf("pooled wire RegisterHealth: %d B, %d allocs per heartbeat", got, (after.Mallocs-before.Mallocs)/rounds)
	}
}

func BenchmarkRegistryListRankedFull100k(b *testing.B) {
	var s Server
	for i := 0; i < 100000; i++ {
		s.RegisterHealth(fmt.Sprintf("relay-%06d", i), "10.0.0.1:1", time.Minute, 0.5)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.rankedAll(0); len(got) != 100000 {
			b.Fatalf("scan returned %d", len(got))
		}
	}
}

func BenchmarkRegistryShardFor(b *testing.B) {
	s := Server{}
	s.init()
	names := make([]string, 1024)
	for i := range names {
		names[i] = fmt.Sprintf("relay-%06d", i)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.shardFor(names[i%len(names)])
	}
}
