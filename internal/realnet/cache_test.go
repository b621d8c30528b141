package realnet

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/relay"
)

// cacheTestbed is one origin on loopback and a transport with a
// client-side cache, no shaping.
func cacheTestbed(t *testing.T, cacheBytes int64) (*Transport, *relay.Origin) {
	t.Helper()
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 2_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ol.Close() })
	return &Transport{
		Servers:    map[string]string{"origin": ol.Addr().String()},
		Verify:     true,
		CacheBytes: cacheBytes,
	}, origin
}

func TestClientCacheServesRepeatWithoutNetwork(t *testing.T) {
	tr, origin := cacheTestbed(t, 1<<20)
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}

	h := tr.Start(obj, core.Path{}, 0, 128<<10)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatal(err)
	}
	egress := origin.BytesServed.Load()
	conns := origin.Conns.Load()

	// The same range, then sub-ranges of it: all from the cache, with the
	// origin never contacted again.
	for _, rg := range []struct{ off, n int64 }{{0, 128 << 10}, {4096, 4096}, {100_000, 20_000}} {
		h := tr.Start(obj, core.Path{}, rg.off, rg.n)
		tr.Wait(h)
		if err := h.Result().Err; err != nil {
			t.Fatalf("cached range [%d,+%d): %v", rg.off, rg.n, err)
		}
	}
	if got := origin.BytesServed.Load(); got != egress {
		t.Fatalf("cached fetches cost %d origin bytes", got-egress)
	}
	if got := origin.Conns.Load(); got != conns {
		t.Fatalf("cached fetches opened %d origin conns", got-conns)
	}
	s := tr.CacheStats()
	if s.Hits != 3 || s.Fills != 1 {
		t.Fatalf("cache counters: %+v", s)
	}
	if s.Warmth() <= 0 {
		t.Fatalf("warmth = %v after hits", s.Warmth())
	}
}

// A client-cache miss tees into a buffer the cache recycled and hands
// it over uncopied: at steady state, with every fetch evicting, a miss
// allocates a small fraction of its range (twice the range when the fill
// was a fresh buffer copied again by Put).
func TestClientCacheMissAllocCeiling(t *testing.T) {
	if bufpool.RaceEnabled {
		t.Skip("the race detector makes sync.Pool drop a quarter of what is Put: there is no ceiling to hold")
	}
	const n, objects, runs = 256 << 10, 8, 32
	tr, origin := cacheTestbed(t, objects/2*n)
	defer tr.Close()
	for i := 0; i < objects; i++ {
		origin.Put(fmt.Sprintf("m%d.bin", i), n)
	}
	next := 0
	miss := func() {
		obj := core.Object{Server: "origin", Name: fmt.Sprintf("m%d.bin", next%objects), Size: n}
		next++
		h := tr.StartWarm(obj, core.Path{}, 0, n)
		tr.Wait(h)
		if err := h.Result().Err; err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 2*objects; i++ {
		miss() // fills the cache, its free list and the buffer pools
	}
	before := tr.CacheStats()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	for i := 0; i < runs; i++ {
		miss()
	}
	runtime.ReadMemStats(&m1)
	if s := tr.CacheStats(); s.Hits != before.Hits || s.Evictions-before.Evictions != runs {
		t.Fatalf("cache %+v after %+v: the measured fetches were not evicting misses", s, before)
	}
	if per := float64(m1.TotalAlloc-m0.TotalAlloc) / runs; per > 0.1*n {
		t.Errorf("client cache miss: %.0f bytes allocated per %d-byte miss, want < %d", per, n, n/10)
	} else {
		t.Logf("client cache miss: %.0f bytes allocated per %d-byte miss", per, n)
	}
}

func TestClientCacheDisabledIsZeroStats(t *testing.T) {
	tr, origin := cacheTestbed(t, 0)
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}
	for i := 0; i < 2; i++ {
		h := tr.Start(obj, core.Path{}, 0, 4096)
		tr.Wait(h)
		if err := h.Result().Err; err != nil {
			t.Fatal(err)
		}
	}
	if got := origin.Conns.Load(); got == 0 {
		t.Fatal("no origin traffic recorded")
	}
	if s := tr.CacheStats(); s.CapacityBytes != 0 || s.Lookups() != 0 {
		t.Fatalf("disabled cache reported activity: %+v", s)
	}
}

func TestClientCacheOversizedRangeStreamsUncached(t *testing.T) {
	tr, _ := cacheTestbed(t, 32<<10) // smaller than the range below
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}
	h := tr.Start(obj, core.Path{}, 0, 64<<10)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatal(err)
	}
	if s := tr.CacheStats(); s.Fills != 0 || s.BytesCached != 0 {
		t.Fatalf("oversized range was teed into the cache: %+v", s)
	}
}
