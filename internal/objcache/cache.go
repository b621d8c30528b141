// Package objcache is the bounded, range-aware object cache behind the
// relay caching tier: byte ranges of named objects are stored as
// coalesced contiguous spans, the whole cache is bounded by total bytes
// with least-recently-used objects evicted first, and concurrent misses
// for the same object/range collapse into a single upstream fill through
// the singleflight Flight API. Spans never expire: an object's bytes are
// a function of its name and offset, so age never makes a span wrong. A
// span leaves the cache only by eviction, a merge, or a failed verify.
//
// No buffer is rewritten while anyone it was handed to can still read
// it. A span's bytes are written once, at insertion: Put copies, and a
// fill handed over with Flight.Complete becomes the span as it is unless
// it merges with a neighbour, when both are coalesced into a new buffer.
// Readers come in two kinds. Read and a shared-fill Wait pin the span
// while their callback runs. Get returns a slice with no end to its use,
// so a span Get has served is never recycled: the reader keeps that
// buffer alive and the cache merely forgets it. When
// the cache drops a span nobody pins and Get never served — eviction,
// trim, a failed verify, a merge — its buffer is recycled:
// a heap buffer goes onto a small free list, and Buffer gives it to the
// next fill of exactly its length; a buffer of the cache's region
// (below) gives its pages back to the region, where the next buffer of
// any length can take them. A miss that evicts therefore allocates
// nothing in proportion to its size.
//
// The buffers the cache allocates itself, from 64 KiB up, live outside
// the Go heap on Linux, in one anonymous mapping per cache that is
// unmapped when the cache itself is collected. The GC then neither scans
// them nor lets the heap grow by their size before its next cycle, so a
// cache of N bytes keeps about N resident plus the runtime's own, not
// about 1.5·N. Get moves a span in the region to the heap the first time
// it serves it. Smaller buffers, buffers a caller made and handed to
// Complete, and every buffer under the race detector or off Linux are
// heap buffers.
//
// Because cached content may sit in memory for a long time, serving can
// be paranoid: an optional Verify hook re-checks every span before Get
// or Read serves it, and a span that fails verification is dropped and
// reported as a miss, so one flipped bit degrades to a refetch instead
// of propagating corruption.
package objcache

import (
	"container/list"
	"slices"
	"sync"
)

// VerifyFunc re-checks cached bytes at serve time: it reports whether
// data is the canonical content of the object named by key at offset
// off. The key is whatever the cache's user chose (the relay uses
// "host:port/name"); the hook owns the parsing.
type VerifyFunc func(key string, off int64, data []byte) bool

// Config configures a Cache.
type Config struct {
	// MaxBytes bounds the total cached payload; Put keeps evicting
	// least-recently-used objects until the cache fits. Required > 0.
	MaxBytes int64
	// Verify, when set, re-checks every span before Get or Read serves
	// it and every shared fill before Flight.Wait hands it to a waiter;
	// a failing span is dropped and the lookup degrades to a miss, a
	// failing fill to errCorruptFill. It runs with the span pinned and
	// the cache's lock released, from each reader's goroutine: it must
	// be safe for concurrent use.
	Verify VerifyFunc
}

// span is one contiguous cached byte run of an object. Spans are
// maximal: Put coalesces overlapping and adjacent fills, so an object's
// spans are always sorted, disjoint, and non-adjacent — which is what
// lets Get serve any fully-covered range from exactly one span,
// zero-copy.
type span struct {
	off  int64
	data []byte

	// pins counts readers inside a Read or Wait callback, plus waiters
	// of a landed fill that have not reached theirs yet. got marks a
	// span Get served; dropped one the cache no longer indexes. A
	// dropped span's buffer is recycled once pins is zero, unless got.
	pins    int
	got     bool
	dropped bool
}

func (s *span) end() int64 { return s.off + int64(len(s.data)) }

// object is one cached object: its spans plus its declared full size
// (SizeUnknown until some fill reveals it).
type object struct {
	key   string
	spans []*span
	size  int64
	elem  *list.Element
}

// SizeUnknown marks an object whose full size no fill has revealed yet.
const SizeUnknown = -1

// freeBuffers bounds the free list of heap buffers. At steady state each
// miss that evicts frees one buffer and the next fill takes it back, so
// a few cover concurrent fills; the cache holds at most this many heap
// buffers beyond MaxBytes.
const freeBuffers = 4

// Cache is the bounded range-aware object cache. All methods are safe
// for concurrent use.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	objects map[string]*object
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[string]*Flight
	free    [][]byte // empty heap buffers of dropped spans nobody reads, oldest first
	arena   *arena   // the region the larger buffers it allocated live in

	hits, misses, fills           int64
	hitBytes, fillBytes           int64
	evictions, evictedBytes       int64
	verifyFailures, flightWaiters int64
	sharedFills, canceledWaits    int64
}

// New returns an empty cache bounded by cfg.MaxBytes.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		panic("objcache: MaxBytes must be positive")
	}
	return &Cache{
		cfg:     cfg,
		objects: make(map[string]*object),
		lru:     list.New(),
		flights: make(map[string]*Flight),
		arena:   newArena(cfg.MaxBytes),
	}
}

// Capacity returns the configured byte bound.
func (c *Cache) Capacity() int64 { return c.cfg.MaxBytes }

// obj returns the tracked object for key, creating it when create is
// set. Callers hold c.mu.
func (c *Cache) obj(key string, create bool) *object {
	o := c.objects[key]
	if o == nil && create {
		o = &object{key: key, size: SizeUnknown}
		o.elem = c.lru.PushFront(o)
		c.objects[key] = o
	}
	return o
}

// dropSpanLocked stops counting a span the caller has just unindexed
// and recycles its buffer if nobody can still read it. Callers hold
// c.mu.
func (c *Cache) dropSpanLocked(s *span) {
	c.bytes -= int64(len(s.data))
	s.dropped = true
	c.releaseLocked(s)
}

// unpinLocked ends one reader's hold on s. Callers hold c.mu.
func (c *Cache) unpinLocked(s *span) {
	s.pins--
	c.releaseLocked(s)
}

// releaseLocked puts s's buffer on the free list once s is dropped,
// unpinned, and was never handed out by Get. Callers hold c.mu.
func (c *Cache) releaseLocked(s *span) {
	if s.dropped && s.pins == 0 && !s.got {
		c.freeLocked(s.data)
	}
}

// freeLocked recycles b, a buffer nobody reads any longer: a buffer of
// the region gives its pages back to it, and a heap buffer is kept for a
// later fill of its capacity, pushing out the oldest free one when the
// list is full. Callers hold c.mu.
func (c *Cache) freeLocked(b []byte) {
	if c.arena.mapped(b) {
		c.arena.release(b)
		return
	}
	if len(c.free) == freeBuffers {
		c.free = slices.Delete(c.free, 0, 1)
	}
	c.free = append(c.free, b[:0])
}

// takeLocked removes and returns a free buffer of capacity n, or nil.
// Callers hold c.mu.
func (c *Cache) takeLocked(n int64) []byte {
	for i, b := range c.free {
		if int64(cap(b)) == n {
			c.free = slices.Delete(c.free, i, i+1)
			return b
		}
	}
	return nil
}

// Buffer returns an empty buffer of capacity n for a fill the caller
// will hand over with Flight.Complete, whether the fill lands or fails:
// a heap buffer of a span the cache dropped and nobody reads any longer
// when one of exactly that capacity is free, else pages of the region,
// which recycles the pages of such spans whatever their length, else a
// new heap buffer. A buffer larger than the whole cache, which it will
// not keep, is a heap buffer.
func (c *Cache) Buffer(n int64) []byte {
	c.mu.Lock()
	b := c.takeLocked(n)
	c.mu.Unlock()
	switch {
	case b != nil:
		return b
	case n > c.cfg.MaxBytes:
		return make([]byte, 0, n)
	}
	return c.arena.alloc(n)
}

// evictSpanLocked drops s for capacity. Callers hold c.mu.
func (c *Cache) evictSpanLocked(s *span) {
	c.evictions++
	c.evictedBytes += int64(len(s.data))
	c.dropSpanLocked(s)
}

// dropLocked evicts an object entirely. Callers hold c.mu.
func (c *Cache) dropLocked(o *object) {
	for _, s := range o.spans {
		c.evictSpanLocked(s)
	}
	o.spans = nil
	c.lru.Remove(o.elem)
	delete(c.objects, o.key)
}

// evictLocked removes least-recently-used objects until the cache fits,
// never touching keep (the object just filled) but to trim it down to
// fresh, its new span. Callers hold c.mu.
func (c *Cache) evictLocked(keep *object, fresh *span) {
	for c.bytes > c.cfg.MaxBytes && c.lru.Len() > 0 {
		back := c.lru.Back().Value.(*object)
		if back == keep {
			// Only the freshly-filled object remains: shed its other
			// spans before giving up (the fresh span itself is bounded
			// by MaxBytes, so this always converges).
			c.trimLocked(keep, fresh)
			return
		}
		c.dropLocked(back)
	}
}

// trimLocked evicts all of o's spans but fresh. Callers hold c.mu.
func (c *Cache) trimLocked(o *object, fresh *span) {
	for _, s := range o.spans {
		if s != fresh {
			c.evictSpanLocked(s)
		}
	}
	o.spans = append(o.spans[:0], fresh)
}

// Get returns the cached bytes of [off, off+n) of the object named key,
// or reports a miss. A hit is served from the single span covering the
// range (coalescing guarantees there is exactly one); the returned
// slice must be treated as read-only and stays valid across concurrent
// eviction, because the cache never recycles a span Get served. A span
// in the cache's region is first moved to the heap, once, so that it can
// outlive the region; every later Get of it is zero-copy. That move
// copies the whole span, which a merge of range fills can grow to
// MaxBytes, with the cache's lock held: Read is the call for serving.
// With a Verify hook configured, the span is re-checked first and
// dropped on mismatch (the lookup then misses).
func (c *Cache) Get(key string, off, n int64) ([]byte, bool) {
	s, data := c.lookup(key, off, n, true)
	return data, s != nil
}

// Read runs fn on the cached bytes of [off, off+n) of the object named
// key and reports whether it did; false is a miss, with fn not called.
// The hit is the one Get would serve, verified the same way, but the
// span is only pinned while fn runs: fn must treat the slice as
// read-only and must not keep it past its return, after which the
// buffer may be recycled for another fill.
func (c *Cache) Read(key string, off, n int64, fn func([]byte)) bool {
	s, data := c.lookup(key, off, n, false)
	if s == nil {
		return false
	}
	fn(data)
	c.mu.Lock()
	c.unpinLocked(s)
	c.mu.Unlock()
	return true
}

// lookup finds the span covering [off, off+n) of key and counts the
// lookup. A hit comes back marked got (for Get, on the heap) or pinned
// (for Read) before anyone else can drop it. With a Verify hook the
// span is pinned across the check, which runs unlocked; a span that
// fails is dropped if it is still indexed, and the lookup counts as a
// miss.
func (c *Cache) lookup(key string, off, n int64, get bool) (*span, []byte) {
	if n <= 0 {
		return nil, nil
	}
	c.mu.Lock()
	o, s := c.findLocked(key, off, n)
	if s == nil {
		c.misses++
		c.mu.Unlock()
		return nil, nil
	}
	data := s.data[off-s.off : off-s.off+n : off-s.off+n]
	s.pins++
	if verify := c.cfg.Verify; verify != nil {
		c.mu.Unlock()
		good := verify(key, off, data)
		c.mu.Lock()
		if !good {
			// One flipped bit must not propagate: drop the whole span
			// and let the caller refill from the origin.
			c.verifyFailures++
			c.misses++
			if i := slices.Index(o.spans, s); i >= 0 {
				o.spans = slices.Delete(o.spans, i, i+1)
				c.dropSpanLocked(s)
			}
			c.unpinLocked(s)
			c.mu.Unlock()
			return nil, nil
		}
	}
	c.hits++
	c.hitBytes += n
	c.lru.MoveToFront(o.elem) // a no-op if o was evicted meanwhile
	if get {
		pinned := s
		if !s.got {
			s = c.gotLocked(o, s)
			data = s.data[off-s.off : off-s.off+n : off-s.off+n]
		}
		c.unpinLocked(pinned) // a span moved to the heap is released here once unread
	}
	c.mu.Unlock()
	return s, data
}

// gotLocked marks s as served by Get, never to be recycled. A span in
// the region is replaced by a heap copy, put in its place in o if it is
// still there; s is dropped, and its pages go back once its pins drain.
// Callers hold c.mu.
func (c *Cache) gotLocked(o *object, s *span) *span {
	if !c.arena.mapped(s.data) {
		s.got = true
		return s
	}
	h := &span{off: s.off, data: slices.Clone(s.data), got: true}
	if i := slices.Index(o.spans, s); i >= 0 {
		o.spans[i] = h
		s.dropped = true // its bytes are h's now: the count stays
	}
	return h
}

// findLocked returns key's object and its span covering [off, off+n);
// nil when there is none. Callers hold c.mu.
func (c *Cache) findLocked(key string, off, n int64) (*object, *span) {
	o := c.obj(key, false)
	if o == nil {
		return nil, nil
	}
	for _, s := range o.spans {
		if s.off <= off && off+n <= s.end() {
			return o, s
		}
	}
	return o, nil
}

// Contains reports whether [off, off+n) is fully cached, without
// touching counters, verification, recency, or the spans.
func (c *Cache) Contains(key string, off, n int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, s := c.findLocked(key, off, n)
	return s != nil
}

// Put inserts p as the content of [off, off+len(p)) of the object named
// key, copying it (callers reuse their buffers) and coalescing with
// every overlapping or adjacent span so partial fetches compose into
// contiguous cached runs; where fills overlap, the fresh bytes win.
// Fills larger than the whole cache are ignored. Put evicts
// least-recently-used objects until the cache fits again.
func (c *Cache) Put(key string, off int64, p []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.putLocked(key, off, p, false, 0)
}

// putLocked inserts p as Put describes, keeping p itself when owned and
// nothing merges, and returns the span now holding p's bytes, created
// with pins already on it; nil when p is empty or larger than the whole
// cache and nothing was stored. Callers hold c.mu.
func (c *Cache) putLocked(key string, off int64, p []byte, owned bool, pins int) *span {
	if len(p) == 0 || int64(len(p)) > c.cfg.MaxBytes {
		return nil
	}
	o := c.obj(key, true)

	// Spans are sorted, disjoint and non-adjacent, so the ones p overlaps
	// or touches are one run, o.spans[i:j].
	lo, hi := off, off+int64(len(p))
	i := 0
	for i < len(o.spans) && o.spans[i].end() < lo {
		i++
	}
	j := i
	for j < len(o.spans) && o.spans[j].off <= hi {
		j++
	}
	merge := o.spans[i:j]
	if len(merge) > 0 {
		lo = min(lo, merge[0].off)
		hi = max(hi, merge[len(merge)-1].end())
	}
	if hi-lo > c.cfg.MaxBytes {
		// The coalesced run would outgrow the whole cache: keep only
		// the fresh fill and discard the spans it touched.
		for _, s := range merge {
			c.evictSpanLocked(s)
		}
		merge = nil
		lo, hi = off, off+int64(len(p))
	}
	buf := p
	if !owned || len(merge) > 0 {
		if buf = c.takeLocked(hi - lo); buf == nil {
			buf = c.arena.alloc(hi - lo)
		}
		buf = buf[:hi-lo]
		for _, s := range merge {
			copy(buf[s.off-lo:], s.data)
		}
		copy(buf[off-lo:], p) // fresh bytes win on overlap
		for _, s := range merge {
			c.dropSpanLocked(s)
		}
		if owned {
			c.freeLocked(p)
		}
	}
	fresh := &span{off: lo, data: buf, pins: pins}
	o.spans = slices.Replace(o.spans, i, j, fresh)
	c.bytes += int64(len(buf))
	c.fills++
	c.fillBytes += int64(len(p))
	c.lru.MoveToFront(o.elem)
	c.evictLocked(o, fresh)
	return fresh
}

// SetSize records the object's full size, learned from an upstream
// response (Content-Length or Content-Range total), so later
// whole-object requests know which range to look up.
func (c *Cache) SetSize(key string, size int64) {
	if size < 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.obj(key, true).size = size
}

// Size returns the object's recorded full size, if any fill revealed it.
func (c *Cache) Size(key string) (int64, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.obj(key, false)
	if o == nil || o.size == SizeUnknown {
		return 0, false
	}
	return o.size, true
}

// Stats is a point-in-time view of the cache, JSON-ready for
// /debug/cache.
type Stats struct {
	// CapacityBytes is the configured bound; BytesCached the payload
	// currently held (a gauge).
	CapacityBytes int64 `json:"capacity_bytes"`
	BytesCached   int64 `json:"bytes_cached"`
	// Objects and Spans gauge the current population.
	Objects int `json:"objects"`
	Spans   int `json:"spans"`

	// Hits/Misses count Get and Read lookups; HitBytes the payload
	// served from cache. SharedFills are lookups answered by waiting on
	// another request's in-flight fill instead of fetching again.
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	HitBytes    int64 `json:"hit_bytes"`
	SharedFills int64 `json:"shared_fills"`

	// Fills counts Put insertions; FillBytes the payload written.
	Fills     int64 `json:"fills"`
	FillBytes int64 `json:"fill_bytes"`

	// Evictions/EvictedBytes count spans dropped for capacity,
	// VerifyFailures spans dropped and shared fills refused because
	// serve-time re-verification caught corruption.
	Evictions      int64 `json:"evictions"`
	EvictedBytes   int64 `json:"evicted_bytes"`
	VerifyFailures int64 `json:"verify_failures"`

	// ActiveFlights and FlightWaiters gauge the singleflight state;
	// CanceledWaits counts waiters that gave up (context death) while
	// their fill continued.
	ActiveFlights int   `json:"active_flights"`
	FlightWaiters int64 `json:"flight_waiters"`
	CanceledWaits int64 `json:"canceled_waits"`
}

// Lookups is the total Get and Read traffic.
func (s Stats) Lookups() int64 { return s.Hits + s.Misses }

// HitRate is Hits over Lookups, 0 before any traffic.
func (s Stats) HitRate() float64 {
	if l := s.Lookups(); l > 0 {
		return float64(s.Hits) / float64(l)
	}
	return 0
}

// Warmth is the scalar the relay folds into its self-reported heartbeat
// score: the byte-weighted fullness of the cache blended with the hit
// rate, in [0, 1]. A relay that is both full of content and serving
// from it is "warm"; an empty or thrashing cache reports cold.
func (s Stats) Warmth() float64 {
	if s.CapacityBytes <= 0 {
		return 0
	}
	fullness := float64(s.BytesCached) / float64(s.CapacityBytes)
	if fullness > 1 {
		fullness = 1
	}
	return (fullness + s.HitRate()) / 2
}

// Stats snapshots the cache's counters and gauges.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	defer c.mu.Unlock()
	spans := 0
	for _, o := range c.objects {
		spans += len(o.spans)
	}
	return Stats{
		CapacityBytes:  c.cfg.MaxBytes,
		BytesCached:    c.bytes,
		Objects:        len(c.objects),
		Spans:          spans,
		Hits:           c.hits,
		Misses:         c.misses,
		HitBytes:       c.hitBytes,
		SharedFills:    c.sharedFills,
		Fills:          c.fills,
		FillBytes:      c.fillBytes,
		Evictions:      c.evictions,
		EvictedBytes:   c.evictedBytes,
		VerifyFailures: c.verifyFailures,
		ActiveFlights:  len(c.flights),
		FlightWaiters:  c.flightWaiters,
		CanceledWaits:  c.canceledWaits,
	}
}
