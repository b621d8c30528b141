package relay

import (
	"bytes"
	"encoding/hex"
	"io"
	"math/rand/v2"
	"testing"
)

// refByte is the content definition spelled out one byte at a time: byte
// pos&7, least significant first, of the mixed word pos>>3. The kernels
// are checked against it.
func refByte(name string, pos uint64) byte {
	return byte(contentWord(pos>>3+contentSeed(name)) >> (8 * (pos & 7)))
}

func refRange(name string, off uint64, n int) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = refByte(name, off+uint64(i))
	}
	return p
}

// TestContentAlignmentMatrix walks every head/tail alignment: each start
// offset 0..15 with each length 0..300 must come out of FillRange,
// WriteRange (through buffers that cut words in every way) and the
// Verifier (under every two-way split) as the same bytes one whole fill
// has there. Past 256 aligned bytes a range runs the vector kernel's
// four-block loop, its one-block loop and the scalar tail.
func TestContentAlignmentMatrix(t *testing.T) {
	const name = "matrix.bin"
	whole := make([]byte, 320)
	FillRange(name, 0, whole)
	if want := refRange(name, 0, len(whole)); !bytes.Equal(whole, want) {
		t.Fatalf("whole fill differs from the per-byte definition:\n got %x\nwant %x", whole, want)
	}
	for off := 0; off <= 15; off++ {
		for n := 0; n <= 300; n++ {
			want := whole[off : off+n]
			got := make([]byte, n+2) // one guard byte each side
			FillRange(name, int64(off), got[1:1+n])
			if !bytes.Equal(got[1:1+n], want) || got[0] != 0 || got[n+1] != 0 {
				t.Fatalf("FillRange(off=%d, n=%d) = %x, want %x (guards %x %x)", off, n, got[1:1+n], want, got[0], got[n+1])
			}
			for _, bufLen := range []int{1, 7, 4096, 32768} {
				var w bytes.Buffer
				m, err := WriteRange(&w, name, int64(off), int64(n), make([]byte, bufLen))
				if err != nil || m != int64(n) || !bytes.Equal(w.Bytes(), want) {
					t.Fatalf("WriteRange(off=%d, n=%d, buf=%d) = %x (%d, %v), want %x", off, n, bufLen, w.Bytes(), m, err, want)
				}
			}
			for cut := 0; cut <= n; cut++ {
				v := NewVerifier(name, int64(off))
				if !v.Verify(want[:cut]) || !v.Verify(want[cut:]) || v.Offset() != int64(off+n) {
					t.Fatalf("Verifier(off=%d, n=%d) rejected the split at %d (offset %d)", off, n, cut, v.Offset())
				}
			}
		}
	}
}

// chunks cuts n bytes into pieces of 0..66 bytes drawn from seed.
func chunks(n int, seed uint64) []int {
	var out []int
	for n > 0 {
		seed = seed*6364136223846793005 + 1442695040888963407
		c := int(seed >> 33 % 67)
		if c > n {
			c = n
		}
		out = append(out, c)
		n -= c
	}
	return out
}

// FuzzContentSplit: however a range is cut up, generating it piecewise
// gives the bytes of generating it whole, every chunking of the clean
// bytes verifies, and one flipped bit is rejected by the chunk that
// holds it — so Offset stays at or before the flipped byte.
func FuzzContentSplit(f *testing.F) {
	f.Add(int64(0), uint16(0), uint64(0), uint32(0))
	f.Add(int64(3), uint16(40), uint64(1), uint32(7))
	f.Add(int64(1<<32-5), uint16(300), uint64(99), uint32(1234))
	f.Add(int64(1<<40+7), uint16(4099), uint64(12345), uint32(4099*8-1))
	// bit 3 of byte 149: past a 1-byte head and two whole 64-byte
	// blocks, inside the third, which the vector kernel checks.
	f.Add(int64(7), uint16(1500), uint64(5), uint32(149*8+3))
	f.Add(int64(-1), uint16(65535), uint64(1<<63), uint32(1<<31))
	f.Fuzz(func(t *testing.T, off int64, length uint16, splits uint64, flipBit uint32) {
		const name = "fuzz.bin"
		off &= 1<<62 - 1
		n := int(length) % 8192
		whole := make([]byte, n)
		FillRange(name, off, whole)
		cuts := chunks(n, splits)

		pieces := make([]byte, n)
		v := NewVerifier(name, off)
		pos := 0
		for _, c := range cuts {
			FillRange(name, off+int64(pos), pieces[pos:pos+c])
			if !v.Verify(whole[pos : pos+c]) {
				t.Fatalf("clean chunk [%d,%d) of off=%d rejected", pos, pos+c, off)
			}
			pos += c
		}
		if !bytes.Equal(pieces, whole) {
			t.Fatalf("piecewise generation of off=%d n=%d differs from whole", off, n)
		}
		if v.Offset() != off+int64(n) {
			t.Fatalf("offset %d after %d clean bytes from %d", v.Offset(), n, off)
		}
		if n == 0 {
			return
		}

		bit := int(flipBit) % (n * 8)
		flipped := off + int64(bit/8)
		whole[bit/8] ^= 1 << (bit % 8)
		if VerifyRange(name, off, whole) {
			t.Fatalf("flipped bit %d of off=%d n=%d accepted whole", bit, off, n)
		}
		v = NewVerifier(name, off)
		pos = 0
		for _, c := range cuts {
			start := v.Offset()
			ok := v.Verify(whole[pos : pos+c])
			holds := start <= flipped && flipped < start+int64(c)
			if ok == holds {
				t.Fatalf("chunk [%d,%d) verify=%v with the flipped byte at %d", start, start+int64(c), ok, flipped)
			}
			if !ok {
				if v.Offset() != start {
					t.Fatalf("offset moved %d -> %d on a failed chunk", start, v.Offset())
				}
				return
			}
			pos += c
		}
		t.Fatalf("flipped bit %d of off=%d n=%d accepted under chunking", bit, off, n)
	})
}

// The word index is a full 64-bit quantity: windows straddling 2^32,
// 2^35 (where a 32-bit word index would wrap) and 2^40 match the
// per-byte definition and do not alias the start of the object.
func TestContentFarOffsets(t *testing.T) {
	const name = "far.bin"
	start := refRange(name, 0, 64)
	for _, base := range []uint64{1 << 32, 1 << 35, 1 << 40} {
		for _, lead := range []uint64{32, 29} {
			off := base - lead
			want := refRange(name, off, 64)
			got := make([]byte, 64)
			FillRange(name, int64(off), got)
			if !bytes.Equal(got, want) {
				t.Fatalf("FillRange at %#x-%d = %x, want %x", base, lead, got, want)
			}
			if !VerifyRange(name, int64(off), want) {
				t.Fatalf("VerifyRange rejects canonical bytes at %#x-%d", base, lead)
			}
		}
		at := make([]byte, 64)
		FillRange(name, int64(base), at)
		if bytes.Equal(at, start) {
			t.Fatalf("content at %#x aliases content at 0", base)
		}
	}
}

// A weak mixer would make the corruption tests vacuous: names must be
// unrelated streams, and no byte lane of the word may be near-constant.
func TestContentQuality(t *testing.T) {
	const span = 64 << 10
	a, b := make([]byte, span), make([]byte, span)
	FillRange("a.bin", 0, a)
	FillRange("b.bin", 0, b)
	same := 0
	for i := range a {
		if a[i] == b[i] {
			same++
		}
	}
	if same > span/100 { // 1/256 by chance
		t.Fatalf("two names share %d of %d bytes", same, span)
	}

	const words = 4096
	p := make([]byte, words*8)
	FillRange("lanes.bin", 0, p)
	for lane := 0; lane < 8; lane++ {
		var seen [256]bool
		distinct := 0
		for w := 0; w < words; w++ {
			if v := p[w*8+lane]; !seen[v] {
				seen[v] = true
				distinct++
			}
		}
		if distinct < 200 {
			t.Fatalf("byte lane %d takes %d distinct values over %d words", lane, distinct, words)
		}
	}
}

// TestContentGoldenVector pins the definition itself. Origin, relay
// verifier and client agree on content only by being the same build, so
// it must change on purpose or not at all.
func TestContentGoldenVector(t *testing.T) {
	for _, g := range []struct {
		off  int64
		want string
	}{
		{0, "81e6075e9f098f33f23f4c7324f2ec090b53f1863cc85cc8a17d7eaa8c9e0bc5be177f9fda5e17e2"},
		{3, "5e9f098f33f23f4c7324f2ec090b53f1863cc85cc8a17d7eaa8c9e0bc5be177f9fda5e17e2f26578"},
	} {
		got := make([]byte, 40)
		FillRange("golden.bin", g.off, got)
		if hex.EncodeToString(got) != g.want {
			t.Errorf("golden.bin at %d = %x, want %s", g.off, got, g.want)
		}
	}
}

// The data path makes and checks content in place: no call allocates,
// over a range long enough that the vector kernels, where the processor
// has them, run over most of it.
func TestContentPathAllocatesNothing(t *testing.T) {
	const span = 100_000
	if span < 64<<10 {
		t.Fatalf("span %d is under 64 KiB", span)
	}
	body := make([]byte, span)
	FillRange("alloc.bin", 5, body)
	buf := make([]byte, 32<<10)
	for _, c := range []struct {
		what string
		f    func() bool
	}{
		{"FillRange", func() bool { FillRange("alloc.bin", 5, body); return true }},
		{"VerifyRange", func() bool { return VerifyRange("alloc.bin", 5, body) }},
		{"NewVerifier.Verify", func() bool { return NewVerifier("alloc.bin", 5).Verify(body) }},
		{"WriteRange with a caller buffer", func() bool {
			n, err := WriteRange(io.Discard, "alloc.bin", 5, span, buf)
			return err == nil && n == span
		}},
	} {
		ok := true
		if allocs := testing.AllocsPerRun(20, func() { ok = ok && c.f() }); allocs != 0 || !ok {
			t.Errorf("%s: %v allocs per call (ok=%v), want 0", c.what, allocs, ok)
		}
	}
}

// TestContentVectorMatchesScalar holds the AVX-512 block kernels to the
// scalar loop they stand in for. Word indices are the seed plus pos>>3,
// so the streams include one that wraps past 2^64 and windows beyond
// 2^40. The block kernels must write and accept the scalar loop's bytes
// and write nothing past their last block; fillContent and checkContent
// must agree with the scalar loop at every head alignment 0..15 and
// every length 0..2100; and a flip of any single bit of a 9-block
// window (two four-register iterations and the one-block loop, so every
// lane of every unrolled register) must fail checkBlocks.
func TestContentVectorMatchesScalar(t *testing.T) {
	if !vectorWords {
		t.Skip("no AVX-512F/DQ with OS support: the content kernels run the scalar loop only")
	}
	t.Log("content kernels: AVX-512 block kernels for the aligned middle, scalar loop for the rest")
	const maxLen, heads = 2100, 16
	rng := rand.New(rand.NewPCG(39, 64))
	for _, c := range []struct{ seed, base uint64 }{
		{rng.Uint64(), 0},
		{rng.Uint64(), 1<<40 + rng.Uint64()>>40<<3},
		{^uint64(0) - 100, 0},         // wraps 808 bytes in
		{1<<64 - 1<<37 - 40, 1 << 40}, // wraps 320 bytes in, beyond 2^40
	} {
		k := c.base>>3 + c.seed
		ref := make([]byte, heads+maxLen)
		fillWords(ref, k)
		if !checkWords(ref, k) {
			t.Fatalf("seed %#x: checkWords rejects fillWords' bytes", c.seed)
		}

		got := make([]byte, len(ref))
		for blocks := 1; blocks*64 < len(ref); blocks++ {
			got[blocks*64] = 0xa5
			fillBlocks(&got[0], blocks, k)
			if !bytes.Equal(got[:blocks*64], ref[:blocks*64]) || got[blocks*64] != 0xa5 {
				t.Fatalf("seed %#x: fillBlocks(%d) differs from the scalar loop or wrote past its end", c.seed, blocks)
			}
			if !checkBlocks(&ref[0], blocks, k) {
				t.Fatalf("seed %#x: checkBlocks(%d) rejects the scalar loop's bytes", c.seed, blocks)
			}
		}

		for off := 0; off < heads; off++ {
			pos := c.base + uint64(off)
			for n := 0; n <= maxLen; n++ {
				want := ref[off : off+n]
				got[n] = 0xa5
				fillContent(c.seed, pos, got[:n])
				if !bytes.Equal(got[:n], want) || got[n] != 0xa5 {
					t.Fatalf("seed %#x: fillContent(pos=%#x, n=%d) differs from the scalar loop", c.seed, pos, n)
				}
				if !checkContent(c.seed, pos, want) {
					t.Fatalf("seed %#x: checkContent(pos=%#x, n=%d) rejects the scalar loop's bytes", c.seed, pos, n)
				}
			}
		}

		const window = 9
		p := append([]byte(nil), ref[:window*64]...)
		for bit := 0; bit < len(p)*8; bit++ {
			p[bit/8] ^= 1 << (bit % 8)
			if checkBlocks(&p[0], window, k) {
				t.Fatalf("seed %#x: checkBlocks accepts a flip of bit %d (register %d, lane %d)", c.seed, bit, bit/512, bit/64%8)
			}
			p[bit/8] ^= 1 << (bit % 8)
		}
	}
}

var contentSink bool

// BenchmarkContentKernels prices one 64 KiB pass of each content kernel,
// scalar and vector, from a word boundary (the vector pair skips where
// the processor has no AVX-512).
func BenchmarkContentKernels(b *testing.B) {
	const span, k = 64 << 10, 12345
	p := make([]byte, span)
	fillWords(p, k)
	for _, c := range []struct {
		name   string
		vector bool
		f      func() bool
	}{
		{"fill/scalar", false, func() bool { fillWords(p, k); return true }},
		{"fill/vector", true, func() bool { fillBlocks(&p[0], span/64, k); return true }},
		{"check/scalar", false, func() bool { return checkWords(p, k) }},
		{"check/vector", true, func() bool { return checkBlocks(&p[0], span/64, k) }},
	} {
		b.Run(c.name, func(b *testing.B) {
			if c.vector && !vectorWords {
				b.Skip("no AVX-512F/DQ with OS support")
			}
			b.SetBytes(span)
			for i := 0; i < b.N; i++ {
				contentSink = c.f()
			}
			if !contentSink {
				b.Fatal("the kernel rejected its own bytes")
			}
		})
	}
}
