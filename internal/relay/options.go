package relay

import (
	"net"
	"strings"
	"time"

	"repro/internal/objcache"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// This file is the construction API for the relay tier. A Relay is
// configured only through New's With<Noun> options, which fill the
// options struct it embeds; the zero Relay is what New builds without
// any. An Origin has no options: NewOriginServer builds an empty one, and
// its Flight and Health fields are its only settings.

// VerifyFunc checks a served byte range against the canonical content
// of the named object; VerifyRange is the canonical implementation for
// this repo's synthetic objects.
type VerifyFunc func(name string, off int64, p []byte) bool

// options is a Relay's settings, one field per option. The zero value
// is a plain forwarding relay: net.Dial upstream, no cache, no stall
// guard, and no telemetry.
type options struct {
	dial          func(network, addr string) (net.Conn, error)
	health        *obs.HealthMonitor
	flight        *flight.Recorder
	upstreamStall time.Duration
	cacheBytes    int64
	verify        VerifyFunc
}

// Option configures a Relay built by New.
type Option func(*options)

// WithDialer sets the upstream dialer (nil means net.Dial). Tests and
// the loopback examples inject a shaping dialer here to emulate the
// intermediate-to-origin path.
func WithDialer(dial func(network, addr string) (net.Conn, error)) Option {
	return func(o *options) { o.dial = dial }
}

// WithHealthMonitor attaches a path-health monitor: one outcome per
// forwarded request folds into it, keyed by the upstream address,
// feeding /debug/paths and the health score self-reported to the
// registry. Nil (the default) costs nothing.
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

// WithVerifier re-verifies cached content at serve time: before the
// cache serves a span, v checks it against the canonical object
// content, and a failing span is dropped and refetched from the origin
// instead of served. Only meaningful with WithCache.
func WithVerifier(v VerifyFunc) Option {
	return func(o *options) { o.verify = v }
}

// WithFlight attaches the store every forwarded request's record
// finishes into, keyed like the health monitor by the upstream address.
// A tracing store makes each row a "forward" span continuing the
// client's x-trace (or rooting a fresh trace) with dial/ttfb/stream
// children, and the forwarded request carries the forward span's context
// so the origin's serve span nests beneath it. Nil (the default) costs
// nothing.
func WithFlight(rec *flight.Recorder) Option {
	return func(o *options) { o.flight = rec }
}

// WithUpstreamStall bounds upstream silence while a response streams
// through the relay: each upstream read, or splice drain, re-arms a
// deadline of d, so a slow-loris origin fails the request (and folds as
// a path failure) instead of wedging the handler goroutine forever.
// Between requests no deadline is armed. Zero (the default) disables
// the guard.
func WithUpstreamStall(d time.Duration) Option {
	return func(o *options) { o.upstreamStall = d }
}

// New constructs a Relay from options:
//
//	r := relay.New(
//	    relay.WithCache(256<<20),
//	    relay.WithVerifier(relay.VerifyRange),
//	    relay.WithHealthMonitor(mon),
//	)
//
// Without options it is equivalent to &Relay{}: a plain forwarding
// relay with no cache, tracing, or health telemetry.
func New(opts ...Option) *Relay {
	r := &Relay{}
	for _, opt := range opts {
		opt(&r.options)
	}
	if r.cacheBytes > 0 {
		r.cache = objcache.New(objcache.Config{
			MaxBytes: r.cacheBytes,
			Verify:   keyVerifier(r.verify),
		})
	}
	return r
}

// NewOriginServer constructs an empty origin server. Set its Flight and
// Health fields before it serves.
func NewOriginServer() *Origin {
	return &Origin{objects: make(map[string]int64)}
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
