package relay

import (
	"bufio"
	"context"
	"io"
	"net"
	"strconv"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/bufpool"
	"repro/internal/httpx"
	"repro/internal/objcache"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Relay is the intermediate-node forwarding service: it accepts
// absolute-form GET requests ("GET http://origin:port/name"), forwards
// the (possibly ranged) request to the origin — over a connection it
// dials for the client connection's first request and keeps for its next
// — and splices the response back to the client: the overlay proxy of
// the paper's methodology.
type Relay struct {
	// Dial opens upstream connections; nil means net.Dial. Tests and the
	// loopback example inject a shaping dialer here to emulate the
	// intermediate-to-origin path.
	Dial func(network, addr string) (net.Conn, error)

	// Health, when set, receives one outcome per forwarded request keyed
	// by the upstream address — the relay's view of its origin paths,
	// feeding /debug/paths and the health score it self-reports to the
	// registry. Nil costs nothing.
	Health *obs.HealthMonitor

	// Flight, when set, is the store every forwarded request's record
	// finishes into, keyed like Health by the upstream address. A tracing
	// store makes each row a "forward" span continuing the client's
	// x-trace (or rooting a fresh trace) with dial/ttfb/stream children,
	// and the forwarded request carries the forward span's context so the
	// origin's serve span nests beneath it. Nil costs nothing.
	Flight *flight.Recorder

	// UpstreamStall bounds how long the upstream may go silent while a
	// response streams through: each upstream read, or splice drain,
	// re-arms a deadline of this length, so a slow-loris origin fails the
	// request instead of wedging the handler goroutine (and the client)
	// forever. Between requests no deadline is armed. Zero disables the
	// guard.
	UpstreamStall time.Duration

	// BytesRelayed counts response-body bytes forwarded to clients.
	BytesRelayed atomic.Int64
	// Requests counts requests handled (including failures).
	Requests atomic.Int64

	// cache, when non-nil, is the bounded range-aware object cache the
	// forwarding path consults before dialing upstream. Only relay.New
	// with WithCache sets it; a zero Relay forwards exactly as before.
	cache *objcache.Cache

	lat  obs.LatencyRecorder
	busy inflight
}

// WriteProm appends the relay's own families — what relayd serves on
// /metrics ahead of the health and runtime views its daemon adds.
func (r *Relay) WriteProm(p *obs.Prom) {
	p.Counter("relay_requests_total", "Requests handled, including failures.", float64(r.Requests.Load()))
	p.Counter("relay_bytes_relayed_total", "Response-body bytes forwarded to clients.", float64(r.BytesRelayed.Load()))
	r.Flight.WriteProm(p, "relay")
	p.Histogram("relay_forward_latency_seconds", "Request forwarding times.", r.lat.Snapshot())
	if r.cache != nil {
		r.cache.Stats().WriteProm(p, "relay")
	}
}

// WaitIdle blocks until no request is between its head being read and
// its record being finished: counters, spans, wide events, latency and
// health then reflect every response a client has fully received.
// relayd's shutdown waits on it before archiving.
func (r *Relay) WaitIdle() { r.busy.wait() }

// Serve accepts and forwards until the listener closes. Each client
// connection owns its upstream leg, which dies with it.
func (r *Relay) Serve(l net.Listener) error {
	return acceptLoop(l, func(conn net.Conn) {
		var up leg
		defer up.close()
		r.busy.keepAlive(conn, func(conn net.Conn, req *httpx.Request) bool {
			return r.forwardOne(conn, req, &up)
		})
	})
}

// ServeAddr starts the relay on addr and returns its listener.
func (r *Relay) ServeAddr(addr string) (net.Listener, error) { return listenAndServe(addr, r.Serve) }

// forwardOne relays a single request; it reports whether the client
// connection can carry another. The whole exchange is one record: a
// "forward" span continuing the client's trace (a missing or malformed
// x-trace header roots a fresh one), the wide event keyed like Health by
// the upstream address, the latency observation and the health fold all
// come out of its Finish. Malformed targets still get an event (path "",
// object = raw target) — the anomaly log should show garbage too.
func (r *Relay) forwardOne(conn net.Conn, req *httpx.Request, up *leg) bool {
	r.Requests.Add(1)
	upstreamAddr, path, ok := req.AbsoluteTarget()
	object := req.Target
	if ok {
		object = strings.TrimPrefix(path, "/")
	}
	// The trace header is parsed even when span recording is off: the
	// latency histogram's exemplars link buckets to traces, and a traced
	// client deserves that link whether or not this relay keeps spans.
	parent, _ := obs.ParseTraceHeader(req.Header[obs.TraceHeader])
	var rec flight.Record
	rec.Start(flight.Spec{
		Flight: r.Flight, Latency: &r.lat, Health: r.Health,
		Service: "relay", Phase: "forward", Path: upstreamAddr, Object: object, Parent: parent})
	rec.SetAttr("target", req.Target)
	var again bool
	flight.DoLabeled(context.Background(), "forward", func(context.Context) {
		again = r.serve(conn, req, &rec, up, upstreamAddr, path, ok)
	})
	rec.Finish()
	return again
}

// serve answers one request — from the cache when it can, through
// forward otherwise — leaving the outcome on rec.
func (r *Relay) serve(conn net.Conn, req *httpx.Request, rec *flight.Record, up *leg, upstreamAddr, path string, ok bool) (again bool) {
	if !ok {
		httpx.WriteResponseHead(conn, 400, "Bad Request: relay requires absolute-form target",
			map[string]string{"content-length": "0"})
		rec.Outcome(obs.ClassStatus, "non-absolute target")
		return true
	}
	if r.cache != nil && req.Method == "GET" {
		if handled, again := r.serveCached(conn, req, rec, up, upstreamAddr, path); handled {
			return again
		}
		// Not cacheable (or a failed shared fill): plain path below.
	}
	return r.forward(conn, req, rec, up, upstreamAddr, path, nil)
}

// fill is the cache side of an upstream exchange: the singleflight this
// request leads. Whichever comes first completes it, once — the last
// upstream byte landing in buf, or forward returning without it.
type fill struct {
	fl  *objcache.Flight
	key string
	off int64
	// buf is the teed body, in a buffer from the cache's Buffer: nil
	// until learn finds the body cacheable, and again once complete has
	// handed it back.
	buf  []byte
	done bool
}

// teeing reports whether the body being streamed is also filling f.
func (f *fill) teeing() bool { return f != nil && f.buf != nil }

// complete hands buf back to the cache with the fill's outcome: the
// whole body on success, and on failure a buffer the cache must release.
func (f *fill) complete(err error) {
	if f == nil || f.done {
		return
	}
	f.done = true
	f.fl.Complete(f.buf, err)
	f.buf = nil
}

// badGateway answers a request whose upstream leg failed before any
// response byte reached the client; the connection stays usable.
func badGateway(conn net.Conn, rec *flight.Record, f *fill, err error) bool {
	rec.Outcome(obs.ClassFailed, err.Error())
	f.complete(err)
	httpx.WriteResponseHead(conn, 502, "Bad Gateway",
		map[string]string{"content-length": "0"})
	return true
}

// leg is the upstream half of one client connection: the connection its
// previous request was forwarded on, kept when that exchange ended
// cleanly so that the next request to the same upstream continues on it
// — the remainder of a selected transfer arrives on the winning probe's
// client connection and finds both legs of the path warm. It is local to
// the goroutine serving the client connection: never shared, never
// pooled, so every new client connection — every probe — still dials,
// and the race measures a path that is cold end to end.
type leg struct {
	addr string   // the upstream conn is open to
	conn net.Conn // nil when there is no leg
	br   *bufio.Reader
}

func (l *leg) close() {
	if l.conn != nil {
		l.conn.Close()
		bufpool.Put(l.br)
		*l = leg{}
	}
}

// roundTrip sends fwd to the upstream at addr and reads the response
// head, on up when it is open to addr and on a fresh dial otherwise. A
// kept leg that fails before it yields a response head went stale while
// it was parked — the upstream idled it out, or restarted — and is
// replaced by one dial, the ordinary keep-alive fallback (realnet.fetch
// has the same): it says nothing about the upstream path, and only the
// outcome of the exchange that follows is folded.
func (r *Relay) roundTrip(up *leg, addr string, fwd *httpx.Request, rec *flight.Record) (*httpx.Response, error) {
	reused := up.conn != nil && up.addr == addr
	if !reused {
		up.close()
	}
	for {
		if up.conn == nil {
			dial := r.Dial
			if dial == nil {
				dial = net.Dial
			}
			rec.Phase("dial")
			rec.PhaseAttr("addr", addr)
			conn, err := dial("tcp", addr)
			if err != nil {
				return nil, err
			}
			*up = leg{addr: addr, conn: conn, br: bufpool.Reader(conn)}
		}
		rec.Phase("ttfb")
		err := fwd.Write(up.conn)
		if err == nil {
			if r.UpstreamStall > 0 {
				// The guard also covers time-to-first-byte: a server that
				// accepts and never answers is the same pathology as one
				// that stalls mid-body.
				up.conn.SetReadDeadline(time.Now().Add(r.UpstreamStall))
			}
			var resp *httpx.Response
			if resp, err = httpx.ReadResponse(up.br); err == nil {
				return resp, nil
			}
		}
		up.close()
		if !reused {
			return nil, err
		}
		reused = false
	}
}

// forward is the relay's one upstream exchange: rewrite, send on the
// client connection's leg, wait for the response head, stream the body
// to the client, and leave the outcome on rec, folded under the upstream
// address. It reports whether the client connection can carry another
// request. The leg outlives the exchange only if it ended cleanly — the
// whole declared body read, nobody asking to close, no error on either
// side — so a response cut short, a probe canceled mid-body included,
// always takes its leg with it: no byte of one response can reach
// another.
//
// With f set this request leads a cache fill: a cacheable body is teed
// into f and committed the moment its last byte is in hand — before that
// byte is released to the client, so whoever asks next finds a hit — and
// keeps draining for the fill's waiters even if this client hangs up.
// Every other way out releases the waiters to fetch for themselves.
func (r *Relay) forward(conn net.Conn, req *httpx.Request, rec *flight.Record, up *leg, upstreamAddr, path string, f *fill) (again bool) {
	rec.FoldKey(upstreamAddr)
	if f != nil {
		rec.SetCache("miss")
		defer f.complete(errUncacheable)
	}
	keep := false
	defer func() {
		if !keep {
			up.close()
		}
	}()

	// Rewrite to origin form, preserving the method (GET/HEAD), the Range
	// header — the relay is transparent to the range-probing mechanism —
	// and every extension ("x-*") header generically, so trace propagation
	// and future extensions survive the hop without the relay naming them
	// one by one.
	fwd := httpx.NewGet(path, upstreamAddr)
	delete(fwd.Header, "connection") // keep-alive
	fwd.Method = req.Method
	for k, v := range req.Header {
		if strings.HasPrefix(k, "x-") {
			fwd.Header[k] = v
		}
	}
	if rg := req.Header["range"]; rg != "" {
		fwd.Header["range"] = rg
	}
	if sc := rec.Context(); sc.Valid() {
		// With tracing on, the upstream request carries the forward span's
		// context so the origin's serve span nests under this hop (with it
		// off, the client's own x-trace passed through unmodified above).
		fwd.Header[obs.TraceHeader] = sc.Header()
	}
	resp, err := r.roundTrip(up, upstreamAddr, fwd, rec)
	if err != nil {
		return badGateway(conn, rec, f, err)
	}
	// Read here, and done with once the body has been copied.
	defer resp.Release()

	if rec.Tracing() { // gate the Itoa: no formatting on the untraced path
		rec.SetAttr("status", strconv.Itoa(resp.Status))
	}
	served := resp.Status == 200 || resp.Status == 206
	if f != nil && served {
		// Error responses are forwarded, never cached; waiters refetch.
		r.learn(f, resp)
		resp.Header["x-cache"] = "miss"
	}
	if req.Method == "HEAD" {
		// The answer to a HEAD declares the object's length in its head,
		// forwarded as it came, and carries no body to wait for.
		resp.ContentLength, resp.Body = 0, strings.NewReader("")
	}
	if resp.ContentLength < 0 {
		// Without a length the body is delimited by upstream close; the
		// client connection cannot be reused afterwards.
		resp.Header["connection"] = "close"
	}
	// The head goes out in the same write as the first body bytes when
	// the leg's reader already holds some. It never waits on the
	// upstream for them: with nothing buffered, no body, or a head
	// larger than the room kept for one, it goes alone.
	bp := relayBufs.Get().(*[]byte)
	defer relayBufs.Put(bp)
	head := httpx.AppendResponseHead((*bp)[:0], resp.Status, resp.Reason, resp.Header)
	var clientErr error
	if resp.ContentLength == 0 || up.br.Buffered() == 0 || len(head) > headRoom {
		_, clientErr = conn.Write(head)
		head = head[:0]
	}
	var got int64
	var upErr error
	if clientErr == nil || f.teeing() {
		rec.Phase("stream")
		got, clientErr, upErr = r.stream(conn, up, resp, rec, f, *bp, len(head), clientErr)
		if rec.Tracing() {
			rec.PhaseAttr("bytes", strconv.FormatInt(rec.Bytes(), 10))
		}
	}
	switch {
	case clientErr != nil:
		// Downstream write failure: the client went away (e.g. a losing
		// probe reaped mid-response). That says nothing about the
		// upstream path, so it folds as canceled, not failed.
		rec.Outcome(obs.ClassCanceled, "client: "+clientErr.Error())
		return false
	case upErr != nil:
		rec.Outcome(obs.ClassFailed, upErr.Error())
		return false
	case resp.ContentLength >= 0 && got < resp.ContentLength:
		// The upstream closed mid-body: its LimitReader surfaces the early
		// FIN as a clean EOF, but the client was promised ContentLength
		// bytes. Report the truncation as an upstream transport failure and
		// close the client connection, so the client sees a short read
		// immediately instead of hanging on a keep-alive conn that will
		// never carry the rest.
		rec.Outcome(obs.ClassFailed, "upstream: short body "+strconv.FormatInt(got, 10)+
			"/"+strconv.FormatInt(resp.ContentLength, 10))
		return false
	case !served:
		rec.Outcome(obs.ClassStatus, resp.Reason)
	}
	again = resp.ContentLength >= 0
	// The leg parks with no deadline armed: the stall guard times reads,
	// not the wait for this client's next request.
	keep = again && resp.Header["connection"] != "close" &&
		(r.UpstreamStall <= 0 || up.conn.SetReadDeadline(time.Time{}) == nil)
	return again
}

// stream moves the upstream body to the client: with spliceStream when
// no fill tees it, both connections are plain TCP and more than one
// chunk is left past what the leg's reader holds, and with copyStream
// otherwise. A body of one chunk or less takes one read and one write
// either way, and a pipe would only add to its cost.
func (r *Relay) stream(conn net.Conn, up *leg, resp *httpx.Response, rec *flight.Record, f *fill, buf []byte, head int, headErr error) (got int64, werr, rerr error) {
	buffered := up.br.Buffered()
	if !f.teeing() && headErr == nil && resp.ContentLength-int64(buffered) > streamChunk {
		_, plainClient := conn.(*net.TCPConn)
		if src, plainUp := up.conn.(*net.TCPConn); plainClient && plainUp {
			if got, werr, rerr, ok := r.spliceStream(conn, src, resp, rec, buf, head, buffered); ok {
				return got, werr, rerr
			}
		}
	}
	return r.copyStream(conn, up.conn, resp, rec, f, buf, head, headErr)
}

// copyStream pumps the upstream body to the client through buf, whose
// first head bytes hold a response head still to be sent: it goes out
// in the same write as the first body bytes, or alone if the first read
// fails, so the client sees the head and then a short read just as if
// it had been written first. Read (upstream) and write (downstream)
// failures are reported separately: the relay's health telemetry must
// not blame the upstream path when the downstream client hung up. Every
// chunk is counted — into BytesRelayed and rec, where the in-flight
// inspector sees it — before the write that releases it, so a client
// holding the last byte never reads a stale counter; a short write
// takes the undelivered part back.
//
// A teeing fill also gets every chunk, commits once the whole body is in
// hand, and keeps the loop draining the upstream after the client is
// gone (headErr, or a failed write); without one a lost client ends the
// copy.
//
// With UpstreamStall set, every read re-arms a deadline on the upstream
// connection: progress resets the clock, silence longer than that
// surfaces as a timeout from the read. A stall detector, not a transfer
// cap — an arbitrarily large body is fine as long as bytes keep arriving.
func (r *Relay) copyStream(dst, upstream net.Conn, resp *httpx.Response, rec *flight.Record, f *fill, buf []byte, head int, headErr error) (got int64, werr, rerr error) {
	werr = headErr
	for {
		if r.UpstreamStall > 0 {
			upstream.SetReadDeadline(time.Now().Add(r.UpstreamStall))
		}
		nr, err := resp.Body.Read(buf[head:])
		if nr > 0 {
			got += int64(nr)
			if f.teeing() {
				f.buf = append(f.buf, buf[head:head+nr]...)
				if got == resp.ContentLength {
					f.complete(nil)
				}
			}
			if werr == nil {
				r.BytesRelayed.Add(int64(nr))
				rec.AddBytes(int64(nr))
				var nw int
				nw, werr = dst.Write(buf[:head+nr])
				if nw = max(nw-head, 0); nw < nr {
					r.BytesRelayed.Add(int64(nw - nr))
					rec.AddBytes(int64(nw - nr))
				}
			}
			head = 0
			if werr != nil && !f.teeing() {
				return got, werr, nil // nothing to salvage for a cache: stop
			}
		}
		if err != nil && head > 0 && werr == nil {
			_, werr = dst.Write(buf[:head]) // no body byte came to go with it
		}
		if err == io.EOF {
			return got, werr, nil
		}
		if err != nil {
			return got, werr, err
		}
	}
}
