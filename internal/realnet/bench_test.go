package realnet

import (
	"testing"

	"repro/internal/core"
	"repro/internal/relay"
)

// benchWarmFetch measures warm range fetches of one size over loopback
// with verification on. The point of ReportAllocs here is the streaming
// pipeline's contract: allocations per transfer stay flat as the range
// grows from 64 KB to 16 MB, because bodies flow through a recycled
// 64 KB buffer instead of being materialized.
func benchWarmFetch(b *testing.B, size int64) {
	origin := relay.NewOriginServer()
	origin.Put("bench.bin", 32<<20)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ol.Close()
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Verify:  true,
	}
	defer tr.Close()
	obj := core.Object{Server: "origin", Name: "bench.bin", Size: 32 << 20}

	// Prime the pool so every measured iteration is warm.
	h := tr.Start(obj, core.Path{}, 0, size)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		b.Fatal(err)
	}

	b.SetBytes(size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h := tr.StartWarm(obj, core.Path{}, 0, size)
		tr.Wait(h)
		if err := h.Result().Err; err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkWarmFetch64K(b *testing.B) { benchWarmFetch(b, 64<<10) }
func BenchmarkWarmFetch1M(b *testing.B)  { benchWarmFetch(b, 1<<20) }
func BenchmarkWarmFetch16M(b *testing.B) { benchWarmFetch(b, 16<<20) }
