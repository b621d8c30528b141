package objcache

import (
	"bytes"
	"testing"
)

// pattern fills a deterministic byte pattern for [off, off+n) so tests
// can check that coalescing stitched ranges together correctly.
func pattern(off, n int64) []byte {
	p := make([]byte, n)
	for i := range p {
		p[i] = byte((off + int64(i)) * 131)
	}
	return p
}

func wantRange(t *testing.T, c *Cache, key string, off, n int64) {
	t.Helper()
	got, ok := c.Get(key, off, n)
	if !ok {
		t.Fatalf("Get(%q, %d, %d) missed", key, off, n)
	}
	if !bytes.Equal(got, pattern(off, n)) {
		t.Fatalf("Get(%q, %d, %d) returned wrong bytes", key, off, n)
	}
}

func wantMiss(t *testing.T, c *Cache, key string, off, n int64) {
	t.Helper()
	if _, ok := c.Get(key, off, n); ok {
		t.Fatalf("Get(%q, %d, %d) unexpectedly hit", key, off, n)
	}
}

func TestAdjacentSpansMerge(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	c.Put("o", 0, pattern(0, 100))
	c.Put("o", 100, pattern(100, 100)) // exactly adjacent
	if s := c.Stats(); s.Spans != 1 {
		t.Fatalf("adjacent fills left %d spans, want 1 coalesced", s.Spans)
	}
	// A read across the former boundary must be served from one span.
	wantRange(t, c, "o", 50, 100)
	wantRange(t, c, "o", 0, 200)
}

func TestOverlappingFillsCoalesce(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	c.Put("o", 0, pattern(0, 150))
	c.Put("o", 100, pattern(100, 150)) // overlaps [100,150)
	if s := c.Stats(); s.Spans != 1 || s.BytesCached != 250 {
		t.Fatalf("overlap left spans=%d bytes=%d, want 1 span of 250", s.Spans, s.BytesCached)
	}
	wantRange(t, c, "o", 0, 250)

	// Fresh bytes win where fills disagree: refill [50,100) with
	// different content and expect the new bytes back.
	fresh := bytes.Repeat([]byte{0xAB}, 50)
	c.Put("o", 50, fresh)
	got, ok := c.Get("o", 50, 50)
	if !ok || !bytes.Equal(got, fresh) {
		t.Fatalf("refilled range not served fresh: ok=%v", ok)
	}
}

func TestGapStaysSplit(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	c.Put("o", 0, pattern(0, 100))
	c.Put("o", 200, pattern(200, 100)) // hole at [100,200)
	if s := c.Stats(); s.Spans != 2 {
		t.Fatalf("disjoint fills coalesced to %d spans", s.Spans)
	}
	wantMiss(t, c, "o", 50, 100) // spans the hole
	wantRange(t, c, "o", 200, 100)

	// Filling the hole collapses all three into one span.
	c.Put("o", 100, pattern(100, 100))
	if s := c.Stats(); s.Spans != 1 {
		t.Fatalf("hole fill left %d spans", s.Spans)
	}
	wantRange(t, c, "o", 0, 300)
}

func TestLRUEvictionByBytes(t *testing.T) {
	c := New(Config{MaxBytes: 250})
	c.Put("a", 0, pattern(0, 100))
	c.Put("b", 0, pattern(0, 100))
	wantRange(t, c, "a", 0, 100) // touch a: b is now LRU
	c.Put("c", 0, pattern(0, 100))

	if s := c.Stats(); s.BytesCached > 250 {
		t.Fatalf("over budget after eviction: %d", s.BytesCached)
	}
	wantMiss(t, c, "b", 0, 100) // the least recently used went first
	wantRange(t, c, "a", 0, 100)
	wantRange(t, c, "c", 0, 100)
	if s := c.Stats(); s.Evictions == 0 || s.EvictedBytes != 100 {
		t.Fatalf("eviction counters: %+v", s)
	}
}

func TestEvictionMidRead(t *testing.T) {
	c := New(Config{MaxBytes: 200})
	c.Put("a", 0, pattern(0, 150))
	got, ok := c.Get("a", 0, 150)
	if !ok {
		t.Fatal("miss on fresh fill")
	}
	// Evict "a" while the reader still holds the slice.
	c.Put("b", 0, pattern(0, 150))
	wantMiss(t, c, "a", 0, 150)
	// The reader's view is unaffected: the buffer outlives the entry.
	if !bytes.Equal(got, pattern(0, 150)) {
		t.Fatal("evicted span's bytes changed under a live reader")
	}
}

func TestVerifyOnServeDropsCorruptSpan(t *testing.T) {
	calls := 0
	good := true
	c := New(Config{
		MaxBytes: 1 << 20,
		Verify: func(key string, off int64, data []byte) bool {
			calls++
			return good
		},
	})
	c.Put("o", 0, pattern(0, 100))
	wantRange(t, c, "o", 0, 100)
	if calls != 1 {
		t.Fatalf("verify ran %d times, want 1", calls)
	}

	// Simulate bit rot: the verifier now rejects the span. The lookup
	// must degrade to a miss and the span must be gone.
	good = false
	wantMiss(t, c, "o", 0, 50)
	good = true
	wantMiss(t, c, "o", 0, 50) // really gone, not just skipped once
	s := c.Stats()
	if s.VerifyFailures != 1 || s.Spans != 0 {
		t.Fatalf("corrupt span not dropped: %+v", s)
	}
}

func TestOversizedRunKeepsFreshFill(t *testing.T) {
	c := New(Config{MaxBytes: 250})
	c.Put("o", 0, pattern(0, 150))
	// Adjacent fill whose coalesced run (300) exceeds the whole cache:
	// the fresh fill survives alone.
	c.Put("o", 150, pattern(150, 150))
	wantRange(t, c, "o", 150, 150)
	wantMiss(t, c, "o", 0, 150)
	if s := c.Stats(); s.BytesCached != 150 {
		t.Fatalf("bytes after capped merge: %d", s.BytesCached)
	}
}

func TestPutLargerThanCacheIgnored(t *testing.T) {
	c := New(Config{MaxBytes: 100})
	c.Put("o", 0, pattern(0, 200))
	if s := c.Stats(); s.BytesCached != 0 || s.Fills != 0 {
		t.Fatalf("oversized fill was cached: %+v", s)
	}
}

func TestSizeRecording(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	if _, ok := c.Size("o"); ok {
		t.Fatal("size known before any fill")
	}
	c.SetSize("o", 12345)
	if sz, ok := c.Size("o"); !ok || sz != 12345 {
		t.Fatalf("Size = %d, %v", sz, ok)
	}
	c.SetSize("o", -1) // invalid, ignored
	if sz, _ := c.Size("o"); sz != 12345 {
		t.Fatalf("negative SetSize overwrote: %d", sz)
	}
}

func TestStatsAndWarmth(t *testing.T) {
	c := New(Config{MaxBytes: 200})
	if w := c.Stats().Warmth(); w != 0 {
		t.Fatalf("cold cache warmth = %v", w)
	}
	c.Put("o", 0, pattern(0, 200))
	wantRange(t, c, "o", 0, 200)
	s := c.Stats()
	if s.HitRate() != 1 {
		t.Fatalf("hit rate = %v", s.HitRate())
	}
	if w := s.Warmth(); w != 1 {
		t.Fatalf("full cache with perfect hit rate: warmth = %v, want 1", w)
	}
	wantMiss(t, c, "x", 0, 10)
	if w := c.Stats().Warmth(); w <= 0 || w >= 1 {
		t.Fatalf("mixed warmth out of (0,1): %v", w)
	}
}
