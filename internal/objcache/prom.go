package objcache

import "repro/internal/obs"

// WriteProm appends the cache's metric families to a Prometheus scrape,
// namespaced by prefix ("relay" → relay_cache_hits_total, ...). The
// split mirrors the snapshot itself: monotonic counters for traffic and
// lifecycle events, gauges for the instantaneous state.
func (s Stats) WriteProm(p *obs.Prom, prefix string) {
	pre := prefix + "_cache_"
	p.Counter(pre+"hits_total", "Lookups fully served from cached spans.", float64(s.Hits))
	p.Counter(pre+"misses_total", "Lookups not covered by cached spans.", float64(s.Misses))
	p.Counter(pre+"hit_bytes_total", "Bytes served from cached spans.", float64(s.HitBytes))
	p.Counter(pre+"fills_total", "Ranges inserted into the cache.", float64(s.Fills))
	p.Counter(pre+"fill_bytes_total", "Bytes inserted into the cache.", float64(s.FillBytes))
	p.Counter(pre+"shared_fills_total", "Waiters served by another request's in-flight fill.", float64(s.SharedFills))
	p.Counter(pre+"evictions_total", "Objects evicted by capacity pressure.", float64(s.Evictions))
	p.Counter(pre+"evicted_bytes_total", "Bytes evicted by capacity pressure.", float64(s.EvictedBytes))
	p.Counter(pre+"verify_failures_total", "Cached spans dropped by serve-time verification.", float64(s.VerifyFailures))
	p.Counter(pre+"canceled_waits_total", "Flight waiters canceled while the fill continued.", float64(s.CanceledWaits))
	p.Gauge(pre+"capacity_bytes", "Configured cache capacity.", float64(s.CapacityBytes))
	p.Gauge(pre+"bytes", "Bytes currently cached.", float64(s.BytesCached))
	p.Gauge(pre+"objects", "Objects currently cached.", float64(s.Objects))
	p.Gauge(pre+"spans", "Contiguous spans currently cached.", float64(s.Spans))
	p.Gauge(pre+"active_flights", "Fills currently in flight.", float64(s.ActiveFlights))
	p.Gauge(pre+"flight_waiters", "Requests currently parked on another's fill.", float64(s.FlightWaiters))
	p.Gauge(pre+"warmth", "Cache warmth score in [0,1]: fullness and hit rate combined.", s.Warmth())
}
