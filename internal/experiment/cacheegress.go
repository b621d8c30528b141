package experiment

import (
	"strconv"
	"sync"

	"repro/internal/objcache"
	"repro/internal/relay"
)

// The cache-egress experiment quantifies what the relay tier's object
// cache buys the origin: a shared catalog fetched by many clients
// through one relay, once with the cache off (every fetch billed to the
// origin) and once with it on (each object leaves the origin once and
// is served from relay memory thereafter). The ratio of origin egress
// between the two runs is the experiment's headline number. Unlike the
// paper-reproduction experiments this one runs on live loopback TCP —
// the measured bytes are the origin daemon's own egress counter, not a
// model.

// CacheEgressParams configures the egress comparison.
type CacheEgressParams struct {
	// Objects is the catalog size (default 8).
	Objects int
	// ObjectSize is each object's size in bytes (default 128 KB).
	ObjectSize int64
}

const (
	// egressClients is the number of concurrent clients fetching the
	// catalog.
	egressClients = 10
	// egressCacheBytes is the cached relay's capacity: the whole catalog
	// fits, isolating the sharing effect from eviction.
	egressCacheBytes = 64 << 20
)

func (p CacheEgressParams) withDefaults() CacheEgressParams {
	if p.Objects == 0 {
		p.Objects = 8
	}
	if p.ObjectSize == 0 {
		p.ObjectSize = 128 << 10
	}
	return p
}

// CacheEgressResult is the measured comparison.
type CacheEgressResult struct {
	Clients    int
	Objects    int
	ObjectSize int64

	// BaselineEgress is the origin bytes served with a cacheless relay:
	// every client fetch billed to the origin.
	BaselineEgress int64
	// CachedEgress is the origin bytes served through the caching relay.
	CachedEgress int64
	// Reduction is BaselineEgress / CachedEgress — how many times less
	// origin egress the cache tier cost.
	Reduction float64

	// CacheStats is the caching relay's final cache snapshot (hits,
	// shared fills, warmth).
	CacheStats objcache.Stats
}

// RunCacheEgress measures origin egress with and without the relay
// cache on live loopback TCP.
func RunCacheEgress(p CacheEgressParams) CacheEgressResult {
	p = p.withDefaults()
	origin := relay.NewOriginServer()
	names := make([]string, p.Objects)
	for i := range names {
		names[i] = "obj-" + strconv.Itoa(i) + ".bin"
		origin.Put(names[i], p.ObjectSize)
	}
	ol, err := origin.ServeAddr("127.0.0.1:0")
	must(err == nil, "origin listen: %v", err)
	defer ol.Close()
	originAddr := ol.Addr().String()

	res := CacheEgressResult{Clients: egressClients, Objects: p.Objects, ObjectSize: p.ObjectSize}

	// fetchAll drives the workload through one relay: every client
	// fetches the whole catalog concurrently, each starting at a
	// different object so the run mixes distinct-object concurrency with
	// same-object collisions (the singleflight case). Returns the origin
	// egress the run cost.
	fetchAll := func(r *relay.Relay) int64 {
		l, err := r.ServeAddr("127.0.0.1:0")
		must(err == nil, "relay listen: %v", err)
		defer l.Close()
		relayAddr := l.Addr().String()

		before := origin.BytesServed.Load()
		var wg sync.WaitGroup
		for c := 0; c < egressClients; c++ {
			wg.Add(1)
			go func(c int) {
				defer wg.Done()
				for i := 0; i < p.Objects; i++ {
					name := names[(c+i)%p.Objects]
					body, err := relay.FetchVia(nil, relayAddr, originAddr, name, 0, p.ObjectSize)
					must(err == nil, "fetch %s: %v", name, err)
					must(int64(len(body)) == p.ObjectSize, "fetch %s: %d bytes", name, len(body))
					must(relay.VerifyRange(name, 0, body), "fetch %s: corrupt bytes", name)
				}
			}(c)
		}
		wg.Wait()
		return origin.BytesServed.Load() - before
	}

	res.BaselineEgress = fetchAll(relay.New())
	cached := relay.New(relay.WithCache(egressCacheBytes), relay.WithVerifier(relay.VerifyRange))
	res.CachedEgress = fetchAll(cached)
	res.CacheStats = cached.Cache().Stats()
	if res.CachedEgress > 0 {
		res.Reduction = float64(res.BaselineEgress) / float64(res.CachedEgress)
	}
	return res
}
