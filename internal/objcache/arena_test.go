package objcache

import (
	"bytes"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"testing"
)

// Tests for where span bytes live: the buffers the cache allocates from
// mapMin up are pages of its region, every page goes back, and none is
// read after it went.

var errCut = errors.New("upstream went away mid-body")

// mappedBy returns the bytes of c's region handed out as buffers.
func mappedBy(c *Cache) int64 {
	c.arena.mu.Lock()
	defer c.arena.mu.Unlock()
	return c.arena.used
}

// A cache full of fills from Buffer grows the heap by its bookkeeping,
// not by its bytes.
func TestMappedFillsStayOffTheHeap(t *testing.T) {
	if !offHeap {
		t.Skip("span buffers are heap buffers on this build")
	}
	const size, capacity = 256 << 10, 64 << 20
	body := pattern(0, size)
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := New(Config{MaxBytes: capacity})
	for i := 0; i < capacity/size; i++ {
		key := fmt.Sprintf("k%d", i)
		fl, _ := c.StartFlight(key, 0, size)
		fl.Complete(append(c.Buffer(size), body...), nil)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s := c.Stats(); s.BytesCached != capacity || mappedBy(c) != capacity {
		t.Fatalf("cached %d bytes in %d mapped, want %d in both", s.BytesCached, mappedBy(c), capacity)
	}
	if grew := int64(after.HeapInuse) - int64(before.HeapInuse); grew >= 8<<20 {
		t.Fatalf("a full %d MiB cache grew the heap by %d KiB", capacity>>20, grew>>10)
	}
	wantRange(t, c, "k0", 0, size)
}

// A fill that fails, or stores nothing, gives its pages back at once.
func TestFailedAndEmptyFillsLeaveNoMapping(t *testing.T) {
	const size = 128 << 10
	c := New(Config{MaxBytes: 1 << 20})
	for _, tc := range []struct {
		name string
		body []byte
		err  error
	}{
		{"failed", pattern(0, size/2), errCut},
		{"empty", nil, nil},
	} {
		fl, _ := c.StartFlight(tc.name, 0, size)
		fill := append(c.Buffer(size), tc.body...)
		if offHeap && mappedBy(c) == 0 {
			t.Fatalf("%s: Buffer(%d) is not in the region", tc.name, size)
		}
		fl.Complete(fill, tc.err)
		if m := mappedBy(c); m != 0 {
			t.Fatalf("%s fill left %d bytes mapped", tc.name, m)
		}
		wantMiss(t, c, tc.name, 0, size)
	}
}

// fillCache fills a cache with spans in its region and drops it.
func fillCache() {
	c := New(Config{MaxBytes: 1 << 20})
	for i := int64(0); i < 4; i++ {
		c.Put("a", i*mapMin*2, pattern(i*mapMin*2, mapMin))
	}
}

// A cache the GC collects takes its region with it.
func TestCollectedCacheReleasesItsMappings(t *testing.T) {
	if !offHeap {
		t.Skip("span buffers are heap buffers on this build")
	}
	fillCache()
	if mappedBytes.Load() == 0 {
		t.Fatal("the spans are not in the region")
	}
	for i := 0; i < 100 && mappedBytes.Load() != 0; i++ {
		runtime.GC()
		runtime.Gosched()
	}
	if m := mappedBytes.Load(); m != 0 {
		t.Fatalf("%d bytes still mapped after the caches were collected", m)
	}
}

// Get moves a span in the region to the heap: its slice keeps its bytes
// after eviction and a refill of the pages the span was in, and later
// Gets of the span are zero-copy.
func TestGetSliceOutlivesEvictionAndRefill(t *testing.T) {
	const size = 128 << 10
	c := New(Config{MaxBytes: size + size/2})
	c.Put("a", 0, pattern(0, size))
	got, ok := c.Get("a", 0, size)
	if !ok {
		t.Fatal("miss on a fresh fill")
	}
	if c.arena.mapped(got) {
		t.Fatal("Get handed out a buffer of the region")
	}
	if again, _ := c.Get("a", 0, size); ptr(again) != ptr(got) {
		t.Fatal("a second Get of the span copied it again")
	}
	c.Put("b", 0, pattern(size, size)) // evicts a
	fl, _ := c.StartFlight("c", 0, size)
	fl.Complete(append(c.Buffer(size), bytes.Repeat([]byte{0xEE}, size)...), nil) // evicts b
	wantMiss(t, c, "a", 0, size)
	if !bytes.Equal(got, pattern(0, size)) {
		t.Fatal("Get's bytes changed")
	}
}

// spanPtr returns the first byte of the buffer of key's first span.
func spanPtr(c *Cache, key string) *byte {
	c.mu.Lock()
	defer c.mu.Unlock()
	return ptr(c.objects[key].spans[0].data)
}

// wantFree checks c's region: the free page runs and the bytes in use.
func wantFree(t *testing.T, c *Cache, runs []run, used int64) {
	t.Helper()
	c.arena.mu.Lock()
	defer c.arena.mu.Unlock()
	if !slices.Equal(c.arena.free, runs) || c.arena.used != used {
		t.Fatalf("free runs %v with %d bytes used, want %v with %d", c.arena.free, c.arena.used, runs, used)
	}
}

// The pages of dropped spans serve the next fill whatever its length,
// and pages given back join their free neighbours.
func TestFreedPagesServeAnyLength(t *testing.T) {
	if !offHeap {
		t.Skip("span buffers are heap buffers on this build")
	}
	const small, large = 2 * mapMin, 3 * mapMin
	pages := func(n int64) int { return int(n) / pageSize }
	c := New(Config{MaxBytes: large}) // a region of 2·large
	c.Put("a", 0, pattern(0, small))
	c.Put("b", 0, pattern(0, mapMin))
	first := spanPtr(c, "a")
	c.Put("c", 0, pattern(0, large)) // evicts a and b
	wantFree(t, c, []run{{0, pages(small + mapMin)}}, large)

	grown := int64(small + mapMin/2)
	fl, _ := c.StartFlight("d", 0, grown)
	fill := append(c.Buffer(grown), pattern(0, grown/2)...)
	if ptr(fill) != first {
		t.Fatal("a fill longer than a freed span did not take its pages")
	}
	wantFree(t, c, []run{{pages(grown), pages(small + mapMin - grown)}}, large+grown)
	fl.Complete(fill, errCut)
	wantFree(t, c, []run{{0, pages(small + mapMin)}}, large)
	wantRange(t, c, "c", 0, large)
}
