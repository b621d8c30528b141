package relay

import (
	"net"
	"strings"
	"time"

	"repro/internal/objcache"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// This file is the options-first construction API for the relay tier,
// mirroring the repro.Client facade: one constructor per component
// (New for relays, NewOriginServer for origins), configured entirely
// through With<Noun> options so new capabilities land as new options
// instead of new constructor signatures. Direct struct construction
// (&Relay{...}) still works for the exported wiring fields and remains
// common in tests, but the cache can only be attached through New —
// its internals are deliberately unexported.

// VerifyFunc checks a served byte range against the canonical content
// of the named object; VerifyRange is the canonical implementation for
// this repo's synthetic objects.
type VerifyFunc func(name string, off int64, p []byte) bool

// options collects everything the relay-tier constructors accept. One
// shared bag keeps option names uniform across New and NewOriginServer;
// each constructor applies the subset that concerns it.
type options struct {
	dial          func(network, addr string) (net.Conn, error)
	health        *obs.HealthMonitor
	cacheBytes    int64
	cacheTTL      time.Duration
	verify        VerifyFunc
	upstreamStall time.Duration
	flight        *flight.Recorder
}

// Option configures a relay-tier constructor.
type Option func(*options)

// WithDialer sets the upstream dialer (nil means net.Dial). Tests and
// the loopback examples inject a shaping dialer here to emulate the
// intermediate-to-origin path.
func WithDialer(dial func(network, addr string) (net.Conn, error)) Option {
	return func(o *options) { o.dial = dial }
}

// WithHealthMonitor attaches a path-health monitor: one outcome per
// request folds into it (keyed by upstream address on the relay, by
// object on the origin), feeding /debug/paths and the health score
// self-reported to the registry.
func WithHealthMonitor(h *obs.HealthMonitor) Option {
	return func(o *options) { o.health = h }
}

// WithCache gives the relay a bounded range-aware object cache of the
// given capacity: response ranges fill it as they stream through,
// later requests covered by cached spans are served without touching
// the origin, and concurrent misses for the same object/range collapse
// into one upstream fetch. Zero or negative disables caching (the
// default), leaving the forwarding path byte-identical to a cacheless
// relay.
func WithCache(bytes int64) Option {
	return func(o *options) { o.cacheBytes = bytes }
}

// WithCacheTTL expires cached spans this long after their fill; 0 (the
// default) keeps them until evicted. Only meaningful with WithCache.
func WithCacheTTL(ttl time.Duration) Option {
	return func(o *options) { o.cacheTTL = ttl }
}

// WithVerifier re-verifies cached content at serve time: before the
// cache serves a span, v checks it against the canonical object
// content, and a failing span is dropped and refetched from the origin
// instead of served. Only meaningful with WithCache.
func WithVerifier(v VerifyFunc) Option {
	return func(o *options) { o.verify = v }
}

// WithFlight attaches the store of finished transfers (Relay.Flight,
// Origin.Flight): one row per request, and with a tracing store its
// spans. Nil (the default) costs nothing.
func WithFlight(rec *flight.Recorder) Option {
	return func(o *options) { o.flight = rec }
}

// WithUpstreamStall bounds upstream silence while a response streams
// through the relay: each upstream read re-arms a deadline of d, so a
// slow-loris origin fails the request (and folds as a path failure)
// instead of wedging the handler goroutine forever. Zero (the default)
// disables the guard.
func WithUpstreamStall(d time.Duration) Option {
	return func(o *options) { o.upstreamStall = d }
}

// New constructs a Relay from options:
//
//	r := relay.New(
//	    relay.WithCache(256<<20),
//	    relay.WithCacheTTL(10*time.Minute),
//	    relay.WithVerifier(relay.VerifyRange),
//	    relay.WithHealthMonitor(mon),
//	)
//
// Without options it is equivalent to &Relay{}: a plain forwarding
// relay with no cache, tracing, or health telemetry.
func New(opts ...Option) *Relay {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	r := &Relay{Dial: o.dial, Health: o.health, UpstreamStall: o.upstreamStall, Flight: o.flight}
	if o.cacheBytes > 0 {
		r.cache = objcache.New(objcache.Config{
			MaxBytes: o.cacheBytes,
			TTL:      o.cacheTTL,
			Verify:   keyVerifier(o.verify),
		})
	}
	return r
}

// NewOriginServer constructs an empty origin server from options
// (WithFlight, WithHealthMonitor; the others do not apply to origins).
func NewOriginServer(opts ...Option) *Origin {
	var o options
	for _, opt := range opts {
		opt(&o)
	}
	return &Origin{
		objects: make(map[string]int64),
		Flight:  o.flight,
		Health:  o.health,
	}
}

// Cache returns the relay's object cache, or nil when the relay was
// built without WithCache.
func (r *Relay) Cache() *objcache.Cache { return r.cache }

// cacheKey is the cache identity of an object as seen by the relay:
// the upstream address plus the request path, so the same name on two
// origins never aliases.
func cacheKey(upstreamAddr, path string) string { return upstreamAddr + path }

// keyVerifier adapts v to the cache's keys (cacheKey, "<upstream
// addr>/<object name>") for serve-time re-verification: the name is
// everything after the first '/'. A nil v stays nil (no verification).
func keyVerifier(v VerifyFunc) objcache.VerifyFunc {
	if v == nil {
		return nil
	}
	return func(key string, off int64, data []byte) bool {
		_, name, _ := strings.Cut(key, "/")
		return v(name, off, data)
	}
}
