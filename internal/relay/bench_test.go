package relay

import (
	"io"
	"testing"
)

func BenchmarkFillRange32K(b *testing.B) {
	buf := make([]byte, 32<<10)
	b.SetBytes(int64(len(buf)))
	for i := 0; i < b.N; i++ {
		FillRange("large.bin", int64(i)<<15, buf)
	}
}

// BenchmarkWriteRange1M times streaming generation: with a caller-supplied
// scratch buffer the only cost is FillRange + the writes — zero
// allocations regardless of range size.
func BenchmarkWriteRange1M(b *testing.B) {
	buf := make([]byte, 32<<10)
	b.SetBytes(1 << 20)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := WriteRange(io.Discard, "large.bin", 0, 1<<20, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVerifier1M times incremental verification of a 1 MB body fed
// in 64 KB stream chunks — the realnet stream loop's per-chunk check.
func BenchmarkVerifier1M(b *testing.B) {
	body := make([]byte, 1<<20)
	FillRange("large.bin", 0, body)
	b.SetBytes(int64(len(body)))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		v := NewVerifier("large.bin", 0)
		for off := 0; off < len(body); off += 64 << 10 {
			if !v.Verify(body[off : off+(64<<10)]) {
				b.Fatal("clean body rejected")
			}
		}
	}
}

func BenchmarkLoopbackFetch64K(b *testing.B) {
	o := NewOriginServer()
	o.Put("big.bin", 1<<20)
	l, err := o.ServeAddr("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Fetch(nil, l.Addr().String(), "big.bin", 0, 64<<10); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoopbackRelayedFetch64K(b *testing.B) {
	o := NewOriginServer()
	o.Put("big.bin", 1<<20)
	ol, err := o.ServeAddr("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ol.Close()
	r := &Relay{}
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer rl.Close()
	b.SetBytes(64 << 10)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := FetchVia(nil, rl.Addr().String(), ol.Addr().String(), "big.bin", 0, 64<<10); err != nil {
			b.Fatal(err)
		}
	}
}
