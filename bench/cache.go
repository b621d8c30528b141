package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"time"

	"repro"
	"repro/internal/objcache"
	"repro/internal/relay"
)

const (
	zipfObjects    = 2000
	zipfObjectSize = 256 << 10
	// zipfCacheBytes holds 256 objects, 12.8% of the corpus: under
	// Zipf s=1.1 about three fetches in four hit, so the median latency
	// sits in the hit mode and the 90th percentile in the miss-fill-evict
	// mode, well away from the boundary between them.
	zipfCacheBytes = 64 << 20
	zipfS          = 1.1
)

// cacheInstance is cache_zipf: whole-object warm fetches over the fixed
// path "edge", a caching relay. No selection and no probes run.
type cacheInstance struct {
	origin    *relay.Origin
	edge      *relay.Relay
	listeners []net.Listener
	transport *repro.RealTransport
	objects   []repro.Object
	keys      []string // the relay cache's key for each object
	zipf      *rand.Zipf

	clientDials dialCounter
	relayDials  dialCounter
	ops         int
	base        cacheBase
}

type cacheBase struct {
	served int64
	cache  objcache.Stats
	pool   repro.RealPoolStats
	dials  int64
}

func (s *cacheInstance) readBase() cacheBase {
	return cacheBase{
		served: s.origin.BytesServed.Load(),
		cache:  s.edge.Cache().Stats(),
		pool:   s.transport.PoolStats(),
		dials:  s.clientDials.dials.Load(),
	}
}

func cacheZipfSetup(cfg runConfig) (instance, error) {
	s := &cacheInstance{origin: relay.NewOriginServer()}
	ol, err := s.origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.listeners = append(s.listeners, ol)
	originAddr := ol.Addr().String()
	for i := 0; i < zipfObjects; i++ {
		name := fmt.Sprintf("z%d-%04d.bin", cfg.seed, i)
		s.origin.Put(name, zipfObjectSize)
		s.objects = append(s.objects, repro.Object{Server: "origin", Name: name, Size: zipfObjectSize})
		s.keys = append(s.keys, originAddr+"/"+name)
	}
	s.edge = relay.New(relay.WithCache(zipfCacheBytes), relay.WithDialer(s.relayDials.wrap(net.Dial)))
	el, err := s.edge.ServeAddr("127.0.0.1:0")
	if err != nil {
		s.close()
		return nil, err
	}
	s.listeners = append(s.listeners, el)
	s.transport = &repro.RealTransport{
		Servers: map[string]string{"origin": originAddr},
		Relays:  map[string]string{"edge": el.Addr().String()},
		Dial:    s.clientDials.wrap(net.Dial),
		Verify:  true,
	}
	// Popularity rank k is object k.
	s.zipf = rand.NewZipf(rand.New(rand.NewSource(cfg.seed)), zipfS, 1, zipfObjects-1)
	return s, nil
}

func (s *cacheInstance) close() {
	if s.transport != nil {
		s.transport.Close()
	}
	for _, l := range s.listeners {
		l.Close()
	}
}

func (s *cacheInstance) op(ctx context.Context, tr *tracer) error {
	k := s.zipf.Uint64()
	obj := s.objects[k]
	s.ops++
	kind := "fetch_miss"
	if tr != nil && s.edge.Cache().Contains(s.keys[k], 0, obj.Size) {
		kind = "fetch_hit"
	}
	t0 := time.Now()
	h := s.transport.StartWarmCtx(ctx, obj, repro.Path{Via: "edge"}, 0, obj.Size)
	s.transport.Wait(h)
	end := time.Now()
	if tr != nil {
		id := tr.newOp()
		tr.add(id, "op", "", t0, end)
		tr.add(id, kind, "op", t0, end)
	}
	res := h.Result()
	switch {
	case res.Err != nil:
		return res.Err
	case res.DeliveredBytes() != obj.Size:
		return fmt.Errorf("delivered %d of %d bytes", res.DeliveredBytes(), obj.Size)
	}
	return nil
}

func (s *cacheInstance) begin() {
	s.ops = 0
	s.base = s.readBase()
}

// check holds the cache to its purpose: the origin served no more than
// the cache's misses explain (with the issue's 1% slack).
func (s *cacheInstance) check() error {
	now := s.readBase()
	served := now.served - s.base.served
	misses := now.cache.Misses - s.base.cache.Misses
	if float64(served) > float64(misses*zipfObjectSize)*1.01 {
		return fmt.Errorf("origin served %d bytes, more than %d misses explain", served, misses)
	}
	return errors.Join(s.clientDials.problem("client"), s.relayDials.problem("relay"))
}

func (s *cacheInstance) counters() map[string]float64 {
	now := s.readBase()
	ops := float64(s.ops)
	hits := float64(now.cache.Hits - s.base.cache.Hits)
	misses := float64(now.cache.Misses - s.base.cache.Misses)
	reuses := float64(now.pool.Reuses - s.base.pool.Reuses)
	poolMisses := float64(now.pool.Misses - s.base.pool.Misses)
	return map[string]float64{
		"objcache.hit_ratio":           ratio(hits, hits+misses),
		"objcache.evictions_per_op":    float64(now.cache.Evictions-s.base.cache.Evictions) / ops,
		"objcache.shared_fills_per_op": float64(now.cache.SharedFills-s.base.cache.SharedFills) / ops,
		"realnet.pool_reuse_ratio":     ratio(reuses, reuses+poolMisses),
		"realnet.dials_per_op":         float64(now.dials-s.base.dials) / ops,
	}
}
