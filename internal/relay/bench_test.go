package relay

import "testing"

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
