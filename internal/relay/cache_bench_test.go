package relay

import "testing"

// benchRelayPair starts an origin and a cached relay on loopback.
func benchRelayPair(b *testing.B, cacheBytes int64) (originAddr, relayAddr string) {
	b.Helper()
	o := NewOriginServer()
	o.Put("bench.bin", 1<<30)
	ol, err := o.ServeAddr("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { ol.Close() })
	r := New(WithCache(cacheBytes))
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rl.Close() })
	return ol.Addr().String(), rl.Addr().String()
}

// BenchmarkCacheHitRelayedFetch64K is the warm path end to end: a full
// client fetch through the relay, served from a cached span without
// touching the origin. The delta against the miss benchmark is the
// origin round trip the cache saves.
func BenchmarkCacheHitRelayedFetch64K(b *testing.B) {
	originAddr, relayAddr := benchRelayPair(b, 16<<20)
	if _, err := FetchVia(nil, relayAddr, originAddr, "bench.bin", 0, 64<<10); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FetchVia(nil, relayAddr, originAddr, "bench.bin", 0, 64<<10); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCacheMissRelayedFetch64K is the cold path: every fetch names
// a range outside the (deliberately small) cache, so each one fills
// through from the origin — the relayed fetch plus the tee overhead.
func BenchmarkCacheMissRelayedFetch64K(b *testing.B) {
	originAddr, relayAddr := benchRelayPair(b, 1<<20)
	b.SetBytes(64 << 10)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// A rotating 64 MB window of offsets: far more ranges than the
		// 1 MB cache retains, so the working set never warms.
		off := int64(i%1024) * (64 << 10)
		if _, err := FetchVia(nil, relayAddr, originAddr, "bench.bin", off, 64<<10); err != nil {
			b.Fatal(err)
		}
	}
}
