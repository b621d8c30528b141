// Package objcache is the bounded, range-aware object cache behind the
// relay caching tier (and, optionally, the client transport): byte
// ranges of named objects are stored as coalesced contiguous spans, the
// whole cache is bounded by total bytes with least-recently-used
// objects evicted first, entries can expire on a TTL, and concurrent
// misses for the same object/range collapse into a single upstream fill
// through the singleflight Flight API.
//
// The cache never hands out mutable state: span buffers are written
// once at insertion (coalescing copies into a fresh buffer) and only
// ever dropped afterwards, so a slice returned by Get stays valid and
// immutable even if the span is evicted mid-read — the reader keeps the
// buffer alive, the cache merely forgets it.
//
// Because cached content may sit in memory for a long time, serving can
// be paranoid: an optional Verify hook re-checks every span before Get
// returns it, and a span that fails verification is dropped and
// reported as a miss, so one flipped bit degrades to a refetch instead
// of propagating corruption.
package objcache

import (
	"container/list"
	"sync"
	"time"
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
	// TTL expires spans this long after their fill (0 = never).
	TTL time.Duration
	// Clock returns the current time (nil = time.Now); injectable for
	// expiry tests.
	Clock func() time.Time
	// Verify, when set, re-checks every span before Get serves it and
	// every shared fill before Flight.Wait hands it to a waiter; a
	// failing span is dropped and the lookup degrades to a miss, a
	// failing fill to errCorruptFill. Get calls it under the cache's
	// lock, Wait from each waiter's goroutine: it must be safe for
	// concurrent use.
	Verify VerifyFunc
}

// span is one contiguous cached byte run of an object. Spans are
// maximal: Put coalesces overlapping and adjacent fills, so an object's
// spans are always sorted, disjoint, and non-adjacent — which is what
// lets Get serve any fully-covered range from exactly one span,
// zero-copy.
type span struct {
	off    int64
	data   []byte
	filled time.Time
}

func (s span) end() int64 { return s.off + int64(len(s.data)) }

// object is one cached object: its spans plus its declared full size
// (SizeUnknown until some fill reveals it).
type object struct {
	key   string
	spans []span
	size  int64
	elem  *list.Element
}

// SizeUnknown marks an object whose full size no fill has revealed yet.
const SizeUnknown = -1

// Cache is the bounded range-aware object cache. All methods are safe
// for concurrent use.
type Cache struct {
	cfg Config

	mu      sync.Mutex
	objects map[string]*object
	lru     *list.List // front = most recently used
	bytes   int64
	flights map[string]*Flight

	hits, misses, fills         int64
	hitBytes, fillBytes         int64
	evictions, evictedBytes     int64
	expirations, verifyFailures int64
	sharedFills, canceledWaits  int64
	flightWaiters               int64
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
	}
}

// Capacity returns the configured byte bound.
func (c *Cache) Capacity() int64 { return c.cfg.MaxBytes }

func (c *Cache) now() time.Time {
	if c.cfg.Clock != nil {
		return c.cfg.Clock()
	}
	return time.Now()
}

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

// expireLocked drops o's spans whose TTL lapsed. Callers hold c.mu.
func (c *Cache) expireLocked(o *object, now time.Time) {
	if c.cfg.TTL <= 0 {
		return
	}
	kept := o.spans[:0]
	for _, s := range o.spans {
		if now.Sub(s.filled) > c.cfg.TTL {
			c.bytes -= int64(len(s.data))
			c.expirations++
			continue
		}
		kept = append(kept, s)
	}
	o.spans = kept
}

// dropLocked forgets an object entirely. Callers hold c.mu.
func (c *Cache) dropLocked(o *object, evicted bool) {
	for _, s := range o.spans {
		c.bytes -= int64(len(s.data))
		if evicted {
			c.evictions++
			c.evictedBytes += int64(len(s.data))
		}
	}
	o.spans = nil
	c.lru.Remove(o.elem)
	delete(c.objects, o.key)
}

// evictLocked removes least-recently-used objects until the cache fits,
// never touching keep (the object just filled). Callers hold c.mu.
func (c *Cache) evictLocked(keep *object) {
	for c.bytes > c.cfg.MaxBytes && c.lru.Len() > 0 {
		back := c.lru.Back().Value.(*object)
		if back == keep {
			// Only the freshly-filled object remains: shed its other
			// spans before giving up (the fresh span itself is bounded
			// by MaxBytes, so this always converges).
			c.trimLocked(keep)
			return
		}
		c.dropLocked(back, true)
	}
}

// trimLocked drops all but o's most recently filled span. Callers hold
// c.mu.
func (c *Cache) trimLocked(o *object) {
	newest := -1
	for i, s := range o.spans {
		if newest < 0 || s.filled.After(o.spans[newest].filled) {
			newest = i
		}
	}
	kept := o.spans[:0]
	for i, s := range o.spans {
		if i == newest {
			kept = append(kept, s)
			continue
		}
		c.bytes -= int64(len(s.data))
		c.evictions++
		c.evictedBytes += int64(len(s.data))
	}
	o.spans = kept
}

// Get returns the cached bytes of [off, off+n) of the object named key,
// or reports a miss. A hit is served zero-copy from the single span
// covering the range (coalescing guarantees there is exactly one); the
// returned slice must be treated as read-only and stays valid across
// concurrent eviction. With a Verify hook configured, the span is
// re-checked first and dropped on mismatch (the lookup then misses).
func (c *Cache) Get(key string, off, n int64) ([]byte, bool) {
	if n <= 0 {
		return nil, false
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.obj(key, false)
	if o == nil {
		c.misses++
		return nil, false
	}
	c.expireLocked(o, now)
	for i, s := range o.spans {
		if s.off <= off && off+n <= s.end() {
			data := s.data[off-s.off : off-s.off+n : off-s.off+n]
			if c.cfg.Verify != nil && !c.cfg.Verify(key, off, data) {
				// One flipped bit must not propagate: drop the whole
				// span and let the caller refill from the origin.
				c.bytes -= int64(len(s.data))
				c.verifyFailures++
				c.misses++
				o.spans = append(o.spans[:i], o.spans[i+1:]...)
				return nil, false
			}
			c.hits++
			c.hitBytes += n
			c.lru.MoveToFront(o.elem)
			return data, true
		}
	}
	c.misses++
	return nil, false
}

// Contains reports whether [off, off+n) is fully cached, without
// touching counters, verification, or recency.
func (c *Cache) Contains(key string, off, n int64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.obj(key, false)
	if o == nil {
		return false
	}
	for _, s := range o.spans {
		if s.off <= off && off+n <= s.end() {
			return true
		}
	}
	return false
}

// Put inserts p as the content of [off, off+len(p)) of the object named
// key, copying it (callers reuse their buffers) and coalescing with
// every overlapping or adjacent span so partial fetches compose into
// contiguous cached runs; where fills overlap, the fresh bytes win.
// Fills larger than the whole cache are ignored. Put evicts
// least-recently-used objects until the cache fits again.
func (c *Cache) Put(key string, off int64, p []byte) {
	if len(p) == 0 || int64(len(p)) > c.cfg.MaxBytes {
		return
	}
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	o := c.obj(key, true)
	c.expireLocked(o, now)

	lo, hi := off, off+int64(len(p))
	var keep, merge []span
	for _, s := range o.spans {
		if s.end() < lo || s.off > hi {
			keep = append(keep, s)
			continue
		}
		merge = append(merge, s)
		if s.off < lo {
			lo = s.off
		}
		if s.end() > hi {
			hi = s.end()
		}
	}
	if hi-lo > c.cfg.MaxBytes {
		// The coalesced run would outgrow the whole cache: keep only
		// the fresh fill and discard the spans it touched.
		for _, s := range merge {
			c.bytes -= int64(len(s.data))
			c.evictions++
			c.evictedBytes += int64(len(s.data))
		}
		merge = nil
		lo, hi = off, off+int64(len(p))
	}
	buf := make([]byte, hi-lo)
	for _, s := range merge {
		copy(buf[s.off-lo:], s.data)
		c.bytes -= int64(len(s.data))
	}
	copy(buf[off-lo:], p) // fresh bytes win on overlap
	c.bytes += int64(len(buf))
	c.fills++
	c.fillBytes += int64(len(p))

	// Re-insert sorted; keep already excludes everything merged.
	at := len(keep)
	for i, s := range keep {
		if s.off > lo {
			at = i
			break
		}
	}
	o.spans = append(keep[:at:at], append([]span{{off: lo, data: buf, filled: now}}, keep[at:]...)...)
	c.lru.MoveToFront(o.elem)
	c.evictLocked(o)
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
// /debug/cache and the facade's CacheStats.
type Stats struct {
	// CapacityBytes is the configured bound; BytesCached the payload
	// currently held (a gauge).
	CapacityBytes int64 `json:"capacity_bytes"`
	BytesCached   int64 `json:"bytes_cached"`
	// Objects and Spans gauge the current population.
	Objects int `json:"objects"`
	Spans   int `json:"spans"`

	// Hits/Misses count Get lookups; HitBytes the payload served from
	// cache. SharedFills are lookups answered by waiting on another
	// request's in-flight fill instead of fetching again.
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	HitBytes    int64 `json:"hit_bytes"`
	SharedFills int64 `json:"shared_fills"`

	// Fills counts Put insertions; FillBytes the payload written.
	Fills     int64 `json:"fills"`
	FillBytes int64 `json:"fill_bytes"`

	// Evictions/EvictedBytes count spans dropped for capacity,
	// Expirations spans dropped by TTL, VerifyFailures spans dropped
	// and shared fills refused because serve-time re-verification
	// caught corruption.
	Evictions      int64 `json:"evictions"`
	EvictedBytes   int64 `json:"evicted_bytes"`
	Expirations    int64 `json:"expirations"`
	VerifyFailures int64 `json:"verify_failures"`

	// ActiveFlights and FlightWaiters gauge the singleflight state;
	// CanceledWaits counts waiters that gave up (context death) while
	// their fill continued.
	ActiveFlights int   `json:"active_flights"`
	FlightWaiters int64 `json:"flight_waiters"`
	CanceledWaits int64 `json:"canceled_waits"`
}

// Lookups is the total Get traffic.
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

// Stats snapshots the cache's counters and gauges. TTL expiry is
// applied first so the byte gauge never reports lapsed spans.
func (c *Cache) Stats() Stats {
	now := c.now()
	c.mu.Lock()
	defer c.mu.Unlock()
	spans := 0
	for _, o := range c.objects {
		c.expireLocked(o, now)
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
		Expirations:    c.expirations,
		VerifyFailures: c.verifyFailures,
		ActiveFlights:  len(c.flights),
		FlightWaiters:  c.flightWaiters,
		CanceledWaits:  c.canceledWaits,
	}
}
