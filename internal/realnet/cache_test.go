package realnet

import (
	"testing"

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
