// Package realnet implements core.Transport over real TCP connections,
// tying the selection engine to the relay/origin daemons. Where package
// httpsim measures virtual time on the fluid simulator, realnet measures
// wall-clock time on live sockets — the same engine code drives both,
// which is the point: the library a downstream user deploys is the one
// the experiments exercised.
//
// The transport is fully context-aware: cancelling a transfer's context
// closes the underlying connection, so a raced probe that lost is torn
// down within a round trip, and a transfer against a stalled relay fails
// at its deadline instead of hanging. Cold-connection failures are retried with
// exponential backoff and jitter, bounded by MaxRetries.
//
// Bodies stream through fixed 64 KB buffers — verified and counted
// chunk by chunk, never materialized — so a transfer's memory footprint
// is constant regardless of range size. Warm continuations draw from a
// bounded per-path pool of idle keep-alive connections (MaxIdlePerPath,
// IdleTTL); probes always dial cold, preserving the cold-path latency
// the paper's selection races measure.
package realnet

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"strconv"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/core"
	"repro/internal/httpx"
	"repro/internal/objcache"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/relay"
)

// DefaultDialTimeout bounds connection establishment when the transport
// does not specify one.
const DefaultDialTimeout = 10 * time.Second

// DefaultMaxRetries is how many extra cold attempts a transfer makes
// after a transient failure when MaxRetries is unset.
const DefaultMaxRetries = 2

// DefaultRetryBackoff is the base backoff before the first retry; it
// doubles per attempt, with jitter, when RetryBackoff is unset.
const DefaultRetryBackoff = 50 * time.Millisecond

// Transport fetches object ranges directly from origin servers or through
// relay daemons.
type Transport struct {
	// Servers maps origin server names (core.Object.Server) to TCP
	// addresses.
	Servers map[string]string
	// Relays maps intermediate names (core.Path.Via) to relay addresses.
	Relays map[string]string
	// Dial opens client-side connections; nil means a net.Dialer. Inject
	// a shaper.Dialer to emulate heterogeneous paths on loopback.
	Dial func(network, addr string) (net.Conn, error)
	// Verify checks received bytes against the canonical synthetic
	// content and fails transfers on corruption.
	Verify bool

	// DialTimeout bounds each connection attempt (DefaultDialTimeout
	// when 0; negative disables the bound).
	DialTimeout time.Duration
	// TransferTimeout is the per-transfer deadline applied to every
	// Start whose context does not already carry an earlier one (0 = no
	// deadline). Expiry fails the transfer with core.ErrProbeTimeout and
	// closes its connection.
	TransferTimeout time.Duration
	// MaxRetries is how many extra cold attempts a transfer makes after
	// a transient dial or I/O failure (DefaultMaxRetries when 0;
	// negative disables retry). HTTP status errors are never retried —
	// the server answered, repeating the question won't change it.
	MaxRetries int
	// RetryBackoff is the base delay before the first retry
	// (DefaultRetryBackoff when 0); it doubles per attempt with ±50%
	// jitter, capped at maxRetryDelay, so synchronized clients do not
	// stampede a recovering node.
	RetryBackoff time.Duration

	// MaxIdlePerPath bounds the idle keep-alive connections parked per
	// path (DefaultMaxIdlePerPath when 0; negative disables pooling).
	// Probes always dial cold — the race measures cold-path latency, as
	// in the paper — so only warm continuations draw from the pool.
	MaxIdlePerPath int
	// IdleTTL is how long a parked connection may sit idle before the
	// pool evicts it (DefaultIdleTTL when 0; negative disables expiry).
	IdleTTL time.Duration

	// CacheBytes, when positive, gives the client a bounded range-aware
	// object cache: every streamed range also fills the cache (keyed by
	// server/name, position-exact), and a later fetch fully covered by
	// cached spans completes without touching the network at all. Zero
	// (the default) disables caching and leaves the transfer path —
	// including its allocation profile — untouched.
	CacheBytes int64
	// CacheTTL expires cached spans this long after their fill; 0 keeps
	// them until evicted. Only meaningful with CacheBytes set.
	CacheTTL time.Duration

	// Observer, Spans and Flight are the sinks every transfer's record
	// (flight.Record) feeds; all nil (the default) leaves the record
	// closed, every site on the hot path a nil check, and the allocation
	// profile unchanged.
	//
	// Observer receives transport-level events: RetryScheduled for every
	// cold re-attempt (with the chosen backoff), TransferAborted for every
	// context-death teardown, and stream progress. The engine's
	// probe/selection events are configured separately (core.Config);
	// pointing both at the same Metrics collector gives one unified view,
	// whose Retries and Aborts are the counts of those events.
	Observer obs.Observer
	// Spans collects distributed-tracing spans: a "transfer" span per
	// transfer (parented on the span context carried by its context,
	// typically the engine's root or race span) with per-phase children —
	// dial, request-write, ttfb, stream, verify — and the transfer span's
	// context stamped into the request's x-trace header so relay and
	// origin continue the same trace.
	Spans *obs.SpanCollector
	// Flight records one wide event per transfer into the flight
	// recorder's bounded ring (phases, bytes, cache state, retries, trace
	// ID) and lists in-flight transfers in its active table.
	Flight *flight.Recorder

	startOnce sync.Once
	start     time.Time

	// pool holds the per-path parked keep-alive connections that warm
	// continuations reuse, built lazily from the fields above.
	poolOnce sync.Once
	pool     *connPool

	// cache is the client-side object cache, built lazily from
	// CacheBytes/CacheTTL on first use; nil when caching is disabled.
	cacheOnce sync.Once
	cache     *objcache.Cache
}

type pooledConn struct {
	conn net.Conn
	br   *bufio.Reader
}

// close closes the connection and gives its reader back for the next
// one. Only the connection's owner closes it this way — the fetch that
// holds it, or the pool it is parked in — because the reader's next user
// must be its only one; cancellation closes the bare conn instead.
func (pc *pooledConn) close() {
	pc.conn.Close()
	if pc.br != nil {
		bufpool.Put(pc.br)
		pc.br = nil
	}
}

// Now returns seconds since the transport's first use.
func (t *Transport) Now() float64 {
	t.init()
	return time.Since(t.start).Seconds()
}

func (t *Transport) init() {
	t.startOnce.Do(func() { t.start = time.Now() })
}

// orDefault resolves a knob that follows the Transport convention: a
// positive value is itself, zero means def, negative disables (zero).
func orDefault[T int | time.Duration](v, def T) T {
	switch {
	case v > 0:
		return v
	case v < 0:
		return 0
	}
	return def
}

func (t *Transport) dialTimeout() time.Duration { return orDefault(t.DialTimeout, DefaultDialTimeout) }
func (t *Transport) maxRetries() int            { return orDefault(t.MaxRetries, DefaultMaxRetries) }

// idlePool returns the transport's connection pool, building it from the
// MaxIdlePerPath/IdleTTL fields on first use (so they must be set before
// the first transfer, like every other Transport field).
func (t *Transport) idlePool() *connPool {
	t.poolOnce.Do(func() {
		t.pool = newConnPool(orDefault(t.MaxIdlePerPath, DefaultMaxIdlePerPath),
			orDefault(t.IdleTTL, DefaultIdleTTL))
	})
	return t.pool
}

// PoolStats returns the connection pool's counters: how often warm
// fetches reused a parked connection, missed, and how connections left
// the pool.
func (t *Transport) PoolStats() PoolStats {
	return t.idlePool().stats()
}

// objCache returns the client-side object cache, building it from
// CacheBytes/CacheTTL on first use (so, like every other Transport
// field, they must be set before the first transfer); nil when caching
// is disabled.
func (t *Transport) objCache() *objcache.Cache {
	t.cacheOnce.Do(func() {
		if t.CacheBytes <= 0 {
			return
		}
		var verify relay.VerifyFunc
		if t.Verify {
			verify = relay.VerifyRange
		}
		t.cache = objcache.New(objcache.Config{
			MaxBytes: t.CacheBytes,
			TTL:      t.CacheTTL,
			Verify:   relay.KeyVerifier(verify),
		})
	})
	return t.cache
}

// CacheStats returns the client-side cache's counters; the zero Stats
// (capacity 0) when caching is disabled.
func (t *Transport) CacheStats() objcache.Stats {
	if c := t.objCache(); c != nil {
		return c.Stats()
	}
	return objcache.Stats{}
}

// objCacheKey is the cache identity of an object on this client:
// origin server name plus object name. Unlike the relay's key it is
// address-independent — the same object fetched over different paths
// shares one cache entry, which is the point of caching above the
// path-selection layer.
func objCacheKey(obj core.Object) string { return obj.Server + "/" + obj.Name }

// StatusError reports a non-success HTTP response. It is permanent from
// the transport's point of view: the server answered, so the request is
// not retried.
type StatusError struct {
	Status int
	Reason string
}

func (e *StatusError) Error() string {
	return fmt.Sprintf("realnet: status %d %s", e.Status, e.Reason)
}

// ObsClass classifies the error for observability (core.Classer): the
// server answered, just not with the bytes.
func (e *StatusError) ObsClass() obs.ErrClass { return obs.ClassStatus }

// handle is an in-flight transfer. Its result is published exactly once
// (through finish), by whichever comes first: the fetch goroutine
// completing, or the context's death, which also closes the transfer's
// active connection so blocked reads unwind promptly.
type handle struct {
	done chan struct{}
	once sync.Once

	mu  sync.Mutex
	res core.FetchResult

	// rec is the transfer's record. Its byte count is the payload
	// delivered by the current attempt, folded into the result on failure
	// so callers can account for partial delivery.
	rec flight.Record

	connMu   sync.Mutex
	conn     net.Conn
	canceled bool
}

func (h *handle) Done() bool {
	select {
	case <-h.done:
		return true
	default:
		return false
	}
}

func (h *handle) Result() core.FetchResult {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.res
}

// finish publishes the transfer outcome; only the first caller wins. A
// failed transfer records how far the stream got before dying.
func (h *handle) finish(end float64, err error) {
	h.once.Do(func() {
		h.mu.Lock()
		h.res.End = end
		h.res.Err = err
		if err != nil {
			h.res.Delivered = h.rec.Bytes()
		}
		h.mu.Unlock()
		close(h.done)
	})
}

// setConn registers the transfer's active connection for cancellation;
// pass nil to deregister. If cancellation already fired, the connection
// is closed immediately.
func (h *handle) setConn(c net.Conn) {
	h.connMu.Lock()
	canceled := h.canceled
	h.conn = c
	h.connMu.Unlock()
	if canceled && c != nil {
		c.Close()
	}
}

// cancel marks the handle canceled and closes whatever connection the
// transfer currently holds.
func (h *handle) cancel() {
	h.connMu.Lock()
	h.canceled = true
	c := h.conn
	h.connMu.Unlock()
	if c != nil {
		c.Close()
	}
}

// StartCtx launches the range transfer on its own goroutine over a fresh
// connection (the cold path: TCP handshake + slow start included).
// Cancellation or deadline expiry of ctx closes the transfer's connection
// and fails the handle promptly with core.ErrCanceled /
// core.ErrProbeTimeout.
func (t *Transport) StartCtx(ctx context.Context, obj core.Object, path core.Path, off, n int64) core.Handle {
	return t.startFetch(ctx, obj, path, off, n, false)
}

// StartWarmCtx is StartCtx continuing on the path's parked keep-alive
// connection when one is available: no TCP handshake, and the kernel's
// congestion window is already open — the real counterpart of the
// simulator's warm start.
func (t *Transport) StartWarmCtx(ctx context.Context, obj core.Object, path core.Path, off, n int64) core.Handle {
	return t.startFetch(ctx, obj, path, off, n, true)
}

// Start and StartWarm are StartCtx and StartWarmCtx under no context.
// They are not part of core.Transport: the repo benchmark (bench/ladder.go,
// bench/cache.go) times single cold and warm fetches through them, and
// this package's tests use them the same way.
func (t *Transport) Start(obj core.Object, path core.Path, off, n int64) core.Handle {
	return t.startFetch(context.Background(), obj, path, off, n, false)
}

func (t *Transport) StartWarm(obj core.Object, path core.Path, off, n int64) core.Handle {
	return t.startFetch(context.Background(), obj, path, off, n, true)
}

func (t *Transport) startFetch(ctx context.Context, obj core.Object, path core.Path, off, n int64, warm bool) core.Handle {
	t.init()
	h := &handle{done: make(chan struct{})}
	h.res = core.FetchResult{Path: path, Offset: off, Bytes: n, Start: t.Now()}

	var parent obs.SpanContext
	if t.Spans != nil {
		parent, _ = obs.SpanFromContext(ctx)
	}
	id := obs.PathID{Server: obj.Server, Object: obj.Name, Via: path.Via}
	rec := &h.rec
	rec.Start(flight.Spec{
		Spans: t.Spans, Flight: t.Flight, Observer: t.Observer,
		Service: "client", Phase: "transfer", Path: id.Label(), Object: obj.Name,
		Warm: warm, Parent: parent, ID: id, Epoch: t.start})
	rec.SetAttr("path", id.Label())
	rec.SetAttr("object", obj.Name)

	ctx, cancelCtx := t.transferContext(ctx)
	// Cancellation is prompt: the instant ctx dies the transfer's
	// connection is closed — that close IS the cancellation on a real
	// socket — and the typed error is published, so Wait/WaitAny return
	// without spinning until the socket unwinds. Registered with ctx, not
	// parked on it: a transfer that finishes first costs no goroutine.
	stop := context.AfterFunc(ctx, func() {
		// Announced before the connection is closed: the close unwinds the
		// fetch goroutine, whose own finish may be the one Wait sees, and
		// the abort must already be counted by then.
		err := core.CtxErr(ctx)
		rec.Abort(core.ErrClassOf(err))
		h.cancel()
		h.finish(t.Now(), err)
	})
	go func() {
		defer cancelCtx()
		var err error
		flight.DoLabeled(ctx, "fetch", func(ctx context.Context) {
			err = t.fetch(ctx, h, obj, path, off, n, warm)
		})
		// The fetch goroutine owns the record: even when the cancellation
		// above publishes first, fetch returns the typed error moments
		// later (the closed socket unwinds its read), so the record still
		// finishes exactly once with the right class.
		rec.Outcome(core.ErrClassOf(err), errString(err))
		rec.Finish()
		// Deregistered before the result is published: the caller that
		// Wait wakes may cancel ctx at once, and a finished transfer is not
		// then canceled.
		stop()
		h.finish(t.Now(), err)
	}()
	return h
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// transferContext applies the transport's per-transfer deadline unless
// the caller's context already expires sooner. Only a deadline to apply
// derives a context; otherwise the transfer runs under ctx itself, and
// its cancellation watch registers there directly instead of on a layer
// that costs a context and a registration with its parent per transfer.
func (t *Transport) transferContext(ctx context.Context) (context.Context, context.CancelFunc) {
	if t.TransferTimeout <= 0 {
		return ctx, func() {}
	}
	if dl, ok := ctx.Deadline(); ok && time.Until(dl) <= t.TransferTimeout {
		return ctx, func() {}
	}
	return context.WithTimeout(ctx, t.TransferTimeout)
}

// pathKey identifies a path's connection-pool slots.
func pathKey(p core.Path) string {
	if p.IsDirect() {
		return "\x00direct"
	}
	return p.Via
}

// Close releases all parked keep-alive connections and stops the pool's
// idle sweeper. The transport still transfers afterwards, but finished
// connections are discarded instead of parked.
func (t *Transport) Close() {
	t.idlePool().close()
}

// dialConn opens one connection, honouring ctx and the dial timeout — as
// a timer of its own only when ctx does not already expire sooner.
// Custom dialers (which predate contexts) run on their own goroutine so
// a dead ctx still returns promptly; a connection that arrives after
// abandonment is closed, not leaked.
func (t *Transport) dialConn(ctx context.Context, addr string) (net.Conn, error) {
	if to := t.dialTimeout(); to > 0 {
		if dl, ok := ctx.Deadline(); !ok || time.Until(dl) > to {
			var cancel context.CancelFunc
			ctx, cancel = context.WithTimeout(ctx, to)
			defer cancel()
		}
	}
	if t.Dial == nil {
		var d net.Dialer
		return d.DialContext(ctx, "tcp", addr)
	}
	type dialed struct {
		c   net.Conn
		err error
	}
	ch := make(chan dialed)
	go func() {
		c, err := t.Dial("tcp", addr)
		select {
		case ch <- dialed{c, err}:
		case <-ctx.Done(): // nobody is waiting any more
			if c != nil {
				c.Close()
			}
		}
	}()
	select {
	case d := <-ch:
		return d.c, d.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// maxRetryDelay caps the exponential backoff. Beyond keeping retries
// responsive, the cap is a correctness fix: the old unbounded shift
// overflowed time.Duration for large attempt numbers and fed a negative
// argument to rand.Int63n, which panics.
const maxRetryDelay = 5 * time.Second

// retryDelay picks the backoff before retry attempt (1-based): the base
// doubles per attempt up to maxRetryDelay, with ±50% jitter so
// synchronized clients do not stampede a recovering node.
func (t *Transport) retryDelay(attempt int) time.Duration {
	d := t.RetryBackoff
	if d <= 0 {
		d = DefaultRetryBackoff
	}
	for i := 1; i < attempt && d < maxRetryDelay; i++ {
		d *= 2
	}
	if d > maxRetryDelay {
		d = maxRetryDelay
	}
	return d/2 + time.Duration(rand.Int63n(int64(d)))
}

// scheduleRetry counts a retry on the record (which announces it, with
// the chosen backoff, to the observer) and sleeps the backoff out —
// returning early with the typed error if ctx dies first.
func (t *Transport) scheduleRetry(ctx context.Context, rec *flight.Record, attempt int, cause error) error {
	d := t.retryDelay(attempt)
	rec.Retry(d, cause)
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return core.CtxErr(ctx)
	}
}

// fetch moves one range. Cold fetches dial; warm fetches reuse a parked
// keep-alive connection from the path's pool when one exists (falling
// back to a fresh dial if the parked connection has gone stale — that
// fallback is free and does not count against the retry budget).
// Transient dial and I/O failures are retried cold with exponential
// backoff; HTTP status errors and context death are not. Fetches that
// leave the connection in a known-good state park it for the next warm
// continuation — including status-error responses whose body was fully
// drained, since the server answered cleanly.
func (t *Transport) fetch(ctx context.Context, h *handle, obj core.Object, path core.Path, off, n int64, warm bool) error {
	rec := &h.rec
	if c := t.objCache(); c != nil {
		if c.Read(objCacheKey(obj), off, n, func([]byte) {}) {
			// Fully covered by cached spans: the transfer completes without
			// touching the network (and without consulting path health — a
			// local hit says nothing about any path).
			rec.SetCache("hit")
			rec.Progress(off, n, n)
			return nil
		}
	}
	originAddr, ok := t.Servers[obj.Server]
	if !ok {
		return fmt.Errorf("realnet: unknown server %q", obj.Server)
	}
	var dialAddr, target, host string
	if path.IsDirect() {
		dialAddr, target, host = originAddr, "/"+obj.Name, originAddr
	} else {
		relayAddr, ok := t.Relays[path.Via]
		if !ok {
			return fmt.Errorf("realnet: unknown relay %q", path.Via)
		}
		dialAddr, target, host = relayAddr, "http://"+originAddr+"/"+obj.Name, originAddr
	}
	key := pathKey(path)

	var pc *pooledConn
	reused := false
	if warm {
		if pc = t.idlePool().take(key); pc != nil {
			reused = true
		}
	}
	retries := 0
	for {
		if err := core.CtxErr(ctx); err != nil {
			return err
		}
		if pc == nil {
			rec.Phase("dial")
			rec.PhaseAttr("addr", dialAddr)
			conn, err := t.dialConn(ctx, dialAddr)
			if err != nil {
				if cerr := core.CtxErr(ctx); cerr != nil {
					return cerr
				}
				if retries >= t.maxRetries() {
					return fmt.Errorf("realnet: dial %s: %w", dialAddr, err)
				}
				retries++
				if berr := t.scheduleRetry(ctx, rec, retries, err); berr != nil {
					return berr
				}
				continue
			}
			pc = &pooledConn{conn: conn, br: bufpool.Reader(conn)}
		}
		h.setConn(pc.conn)
		// Arm the ctx deadline — or, when ctx has none, explicitly clear
		// whatever deadline a previous transfer may have left armed on a
		// pooled connection, so a lazy warm fetch never inherits a sooner
		// expiry. A connection that can't even take a deadline is already
		// dead (e.g. closed under us by the pool sweeper); for a reused one
		// that's the free keep-alive fallback, not an error.
		dl, _ := ctx.Deadline()
		if err := pc.conn.SetDeadline(dl); err != nil && reused {
			pc.close()
			pc = nil
			reused = false
			continue
		}
		rec.StoreBytes(0)
		reusable, err := t.doRange(pc, rec, obj, target, host, off, n)
		h.setConn(nil)
		if err != nil {
			if _, ok := err.(*StatusError); ok { // doRange returns it unwrapped
				// The server answered; a reusable connection survives the
				// failure (the old code closed it here, burning a warm
				// connection on every 404).
				t.release(key, pc, reusable)
				return err
			}
			pc.close()
			pc = nil
			if cerr := core.CtxErr(ctx); cerr != nil {
				return cerr
			}
			if reused {
				// The parked connection went stale; a fresh dial is the
				// normal keep-alive fallback, not a retry. This check runs
				// before the timeout classification on purpose: a half-open
				// pooled connection swallows the request silently until the
				// armed deadline pops, which used to surface as a spurious
				// ErrProbeTimeout even though the ctx (checked just above)
				// was still alive.
				reused = false
				continue
			}
			if ne, ok := err.(net.Error); ok && ne.Timeout() {
				// A connection deadline fired without the ctx (cold
				// standalone timeout): surface it as the typed expiry.
				return fmt.Errorf("%w: %w", core.ErrProbeTimeout, err)
			}
			if retries >= t.maxRetries() {
				return err
			}
			retries++
			if berr := t.scheduleRetry(ctx, rec, retries, err); berr != nil {
				return berr
			}
			continue
		}
		t.release(key, pc, reusable)
		return nil
	}
}

// release parks a connection a transfer left in a known-good state, and
// closes any other. Parking requires clearing the transfer deadline — a
// connection that refuses is dead and must not reach the pool with a
// stale deadline armed.
func (t *Transport) release(key string, pc *pooledConn, reusable bool) {
	if reusable && pc.conn.SetDeadline(time.Time{}) == nil {
		t.idlePool().park(key, pc)
	} else {
		pc.close()
	}
}

// streamBufSize is the transfer buffer: large enough to keep syscall
// overhead negligible, small enough that a transfer's memory footprint is
// constant regardless of range size.
const streamBufSize = 64 << 10

// maxStatusDrain bounds how large an error-response body the transport
// drains to keep a connection reusable; anything bigger is cheaper to
// re-dial than to read.
const maxStatusDrain = 256 << 10

// streamBufs recycles transfer buffers across fetches, so steady-state
// transfers allocate nothing proportional to object size. It holds
// pointers: a slice put in an interface is boxed, an allocation per Put.
var streamBufs = sync.Pool{
	New: func() any { b := make([]byte, streamBufSize); return &b },
}

// doRange issues one keep-alive range request on an open connection and
// streams the body: each buffer-full is verified (when Verify is set)
// and counted into the record as it arrives, so nothing proportional to
// n is ever held in memory. It reports whether the connection remains
// usable for another request.
func (t *Transport) doRange(pc *pooledConn, rec *flight.Record, obj core.Object, target, host string, off, n int64) (reusable bool, err error) {
	req := httpx.NewGet(target, host)
	delete(req.Header, "connection") // keep-alive
	req.SetRange(off, n)
	if sc := rec.Context(); sc.Valid() {
		// The transfer span's context goes on the wire, so the relay's
		// forward span (and through it the origin's serve span) nests under
		// this transfer in the stitched timeline.
		req.Header[obs.TraceHeader] = sc.Header()
	}
	rec.Phase("request-write")
	if err := req.Write(pc.conn); err != nil {
		return false, err
	}
	rec.Phase("ttfb")
	resp, err := httpx.ReadResponse(pc.br)
	if err != nil {
		return false, err
	}
	defer resp.Release() // read and finished with here, on this goroutine
	keep := resp.Header["connection"] != "close"
	if resp.Status != 200 && resp.Status != 206 {
		// Drain a bounded error body so the connection stays usable, then
		// report the failure.
		drained := false
		if resp.ContentLength >= 0 && resp.ContentLength <= maxStatusDrain {
			_, derr := io.Copy(io.Discard, resp.Body)
			drained = derr == nil
		}
		return keep && drained, &StatusError{Status: resp.Status, Reason: resp.Reason}
	}
	if resp.ContentLength > n {
		// More content than the range asked for: the framing is wrong, and
		// reading past n would just bury the protocol error.
		return false, fmt.Errorf("realnet: oversized body %d for %d-byte range", resp.ContentLength, n)
	}

	// Held by value: a verifier is the name's seed and a position.
	var v relay.Verifier
	if t.Verify {
		v = *relay.NewVerifier(obj.Name, off)
	}
	// With caching on, the stream tees into a fill buffer — one the cache
	// recycled when it has one of this size — that is handed to the cache
	// once the range is complete, so it lands there as a side effect of
	// delivery. With it off (or the range bigger than the whole cache)
	// fill stays nil and the loop below is byte-for-byte the uncached one.
	var fill []byte
	cache := t.objCache()
	if cache != nil && n <= cache.Capacity() {
		fill = cache.Buffer(n)
	}
	bp := streamBufs.Get().(*[]byte)
	defer streamBufs.Put(bp)
	buf := *bp
	rec.Phase("stream")
	// Verification interleaves with streaming, so its cost is measured as
	// cumulative busy time and recorded as one after-the-fact span nested
	// under the stream phase, first check to stream end (with the busy
	// total as an attribute) — timed only when tracing, so the untraced
	// path makes no clock calls.
	tracing := rec.Tracing()
	var verifyStart time.Time
	var verifyBusy time.Duration
	var delivered int64
	for delivered < n && err == nil {
		chunk := int64(len(buf))
		if rest := n - delivered; rest < chunk {
			chunk = rest
		}
		m, rerr := io.ReadFull(resp.Body, buf[:chunk])
		if m > 0 {
			if t.Verify {
				var t0 time.Time
				if tracing {
					t0 = time.Now()
					if verifyStart.IsZero() {
						verifyStart = t0
					}
				}
				good := v.Verify(buf[:m])
				if tracing {
					verifyBusy += time.Since(t0)
				}
				if !good {
					err = fmt.Errorf("realnet: content mismatch for %s at %d", obj.Name, v.Offset())
					break
				}
			}
			if fill != nil {
				fill = append(fill, buf[:m]...)
			}
			delivered += int64(m)
			rec.Progress(off, int64(m), n)
		}
		if rerr == io.EOF || rerr == io.ErrUnexpectedEOF {
			rerr = fmt.Errorf("realnet: short read %d of %d bytes", delivered, n)
		}
		err = rerr
	}
	if tracing {
		rec.PhaseAttr("bytes", strconv.FormatInt(delivered, 10))
		if !verifyStart.IsZero() {
			rec.Overlap("verify", verifyStart,
				map[string]string{"busy_ns": strconv.FormatInt(int64(verifyBusy), 10)})
		}
	}
	if err != nil {
		return false, err
	}
	if fill != nil {
		cache.PutOwned(objCacheKey(obj), off, fill)
	}
	// Reusable only if the response was exactly the requested range: an
	// unknown-length body leaves the stream position undefined.
	return keep && resp.ContentLength == n, nil
}

// Wait blocks until all handles complete. A handle whose context is
// canceled completes promptly (its context's death publishes the typed
// error and closes the connection), so Wait never spins out a dead transfer.
func (t *Transport) Wait(hs ...core.Handle) {
	for _, h := range hs {
		<-h.(*handle).done
	}
}

// WaitAny blocks until at least one handle completes and returns its
// index. Like Wait, it returns promptly for canceled handles.
func (t *Transport) WaitAny(hs ...core.Handle) int {
	cases := make([]reflect.SelectCase, len(hs))
	for i, h := range hs {
		cases[i] = reflect.SelectCase{
			Dir:  reflect.SelectRecv,
			Chan: reflect.ValueOf(h.(*handle).done),
		}
	}
	chosen, _, _ := reflect.Select(cases)
	return chosen
}

// Stat discovers an object's size with a HEAD request to its origin, so
// clients need not know sizes out of band.
func (t *Transport) Stat(server, name string) (int64, error) {
	return t.StatCtx(context.Background(), server, name)
}

// StatCtx is Stat observing ctx for the dial and the request.
func (t *Transport) StatCtx(ctx context.Context, server, name string) (int64, error) {
	addr, ok := t.Servers[server]
	if !ok {
		return 0, fmt.Errorf("realnet: unknown server %q", server)
	}
	return relay.Head(func(network, a string) (net.Conn, error) {
		conn, err := t.dialConn(ctx, a)
		if err != nil {
			return nil, err
		}
		if dl, ok := ctx.Deadline(); ok {
			conn.SetDeadline(dl)
		}
		return conn, nil
	}, addr, name)
}

var _ core.Transport = (*Transport)(nil)
