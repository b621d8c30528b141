// Package relay contains the real-TCP components of the indirect routing
// system: an origin server that serves synthetic ranged objects, and the
// relay daemon that forwards client requests to origins — the
// intermediate-node software of the paper. Both speak the httpx protocol
// subset over plain net.Conn. On Linux the relay splices a body longer
// than one chunk from its upstream socket to the client's with
// splice(2), when both are plain TCP connections and no cache fill tees
// it; every other body is copied through a buffer.
package relay

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/bufpool"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Origin is an origin server holding synthetic objects of declared sizes.
type Origin struct {
	mu      sync.RWMutex
	objects map[string]int64

	// Flight, when set, is the store every request's record finishes
	// into. A tracing store makes each row a terminal "serve" span,
	// continuing the trace named by the x-trace request header (stamped by
	// the client or rewritten by the relay) or rooting a fresh one. Nil
	// costs nothing.
	Flight *flight.Recorder

	// Health, when set, receives one outcome per request keyed by object
	// name — the origin's serving-quality view, feeding /debug/paths.
	// Nil costs nothing.
	Health *obs.HealthMonitor

	// BytesServed counts content bytes written to clients.
	BytesServed atomic.Int64
	// Conns counts accepted connections (keep-alive reuse keeps this
	// flat across requests).
	Conns atomic.Int64

	lat  obs.LatencyRecorder
	busy inflight
}

// WriteProm appends the origin's own families — what origind serves on
// /metrics ahead of the health and runtime views its daemon adds.
func (o *Origin) WriteProm(p *obs.Prom) {
	p.Counter("origin_bytes_served_total", "Content bytes written to clients.", float64(o.BytesServed.Load()))
	p.Counter("origin_conns_total", "Connections accepted.", float64(o.Conns.Load()))
	o.Flight.WriteProm(p, "origin")
	p.Histogram("origin_request_latency_seconds", "Request serving times.", o.lat.Snapshot())
}

// WaitIdle blocks until no request is between its head being read and
// its record being finished: counters, spans, latency and health then
// reflect every response a client has fully received.
func (o *Origin) WaitIdle() { o.busy.wait() }

// Put registers an object.
func (o *Origin) Put(name string, size int64) {
	if size < 0 {
		panic("relay: negative object size")
	}
	o.mu.Lock()
	o.objects[name] = size
	o.mu.Unlock()
}

// Size returns an object's size.
func (o *Origin) Size(name string) (int64, bool) {
	o.mu.RLock()
	defer o.mu.RUnlock()
	sz, ok := o.objects[name]
	return sz, ok
}

// originSendBuffer bounds the kernel send buffer of every connection
// the origin accepts (Linux doubles it, so getsockopt reads 512 KiB
// where net.core.wmem_max allows). An accepted loopback socket read
// tcp_wmem's maximum, 4 MiB, from the start, and the origin's generator
// never waits, so unbounded it ran megabytes ahead of its reader, and
// the relay and the client read every byte after it had left a 2 MiB
// L2. Swept on a 2-vCPU guest,
// bulk_select ops/s over two runs each: none 155/162, 64 KiB 186/195,
// 128 KiB 195/201, 256 KiB 198/184, 512 KiB 155/195, 1 MiB 156/157.
// 256 KiB is the largest value on the plateau, and a 256 KiB object
// with its head, or a probe, still goes out without the writer
// blocking. On a long path the bound caps a connection at about 512 KiB
// per round trip: 20-40 Mb/s at 100 ms, above the paper's High
// category (> 3 Mb/s). The relay, the component deployed on such
// paths, keeps the kernel's autotuning.
const originSendBuffer = 256 << 10

// Serve accepts connections until the listener closes. A connection
// serves requests in sequence (HTTP keep-alive) until the client sends
// "connection: close" or hangs up — which is what lets the remainder of
// a selected transfer continue on the winning probe's warm connection.
// Every connection that can set its send buffer gets originSendBuffer.
func (o *Origin) Serve(l net.Listener) error {
	return acceptLoop(l, func(conn net.Conn) {
		if c, ok := conn.(interface{ SetWriteBuffer(int) error }); ok {
			c.SetWriteBuffer(originSendBuffer)
		}
		o.Conns.Add(1)
		o.busy.keepAlive(conn, o.serveOne)
	})
}

// serveOne answers a single request; it reports whether the connection
// can serve another. The exchange is one record: a terminal "serve"
// span under whatever trace the request's x-trace header names (parsed
// even with span recording off — the latency histogram's exemplars want
// it), the latency observation, and the health fold keyed by object.
func (o *Origin) serveOne(conn net.Conn, req *httpx.Request) bool {
	parent, _ := obs.ParseTraceHeader(req.Header[obs.TraceHeader])
	var rec flight.Record
	rec.Start(flight.Spec{
		Flight: o.Flight, Latency: &o.lat, Health: o.Health,
		Service: "origin", Phase: "serve", Parent: parent})
	again := o.serve(conn, req, &rec)
	rec.Finish()
	return again
}

func (o *Origin) serve(conn net.Conn, req *httpx.Request, rec *flight.Record) (again bool) {
	name := req.Target
	if _, path, ok := req.AbsoluteTarget(); ok {
		name = path
	}
	if len(name) > 0 && name[0] == '/' {
		name = name[1:]
	}
	rec.SetAttr("object", name)
	rec.FoldKey(name)
	size, ok := o.Size(name)
	if !ok {
		rec.Outcome(obs.ClassStatus, "not found")
		return httpx.WriteResponseHead(conn, 404, "Not Found",
			map[string]string{"content-length": "0"}) == nil
	}
	off, n, err := httpx.ParseRange(req.Header["range"], size)
	if err != nil {
		status, reason := 400, "Bad Request"
		if errors.Is(err, httpx.ErrUnsatisfiable) {
			status, reason = 416, "Range Not Satisfiable"
		}
		rec.Outcome(obs.ClassStatus, reason)
		return httpx.WriteResponseHead(conn, status, reason,
			map[string]string{"content-length": "0"}) == nil
	}

	header := map[string]string{
		"content-length": strconv.FormatInt(n, 10),
		"accept-ranges":  "bytes",
	}
	status, reason := 200, "OK"
	if req.Header["range"] != "" {
		status, reason = 206, "Partial Content"
		header["content-range"] = httpx.ContentRange(off, n, size)
	}
	// A failed write is the client going away (a losing probe reaped, a
	// caller's deadline): it says nothing about the object, so it folds
	// as canceled, as a relay's failed downstream write does.
	if req.Method == "HEAD" || n == 0 {
		if err := httpx.WriteResponseHead(conn, status, reason, header); err != nil {
			rec.Outcome(obs.ClassCanceled, "client: "+err.Error())
			return false
		}
		return true
	}

	// The head goes out in the same write as the first chunk of content.
	bp := relayBufs.Get().(*[]byte)
	head := httpx.AppendResponseHead((*bp)[:0], status, reason, header)
	sent, werr := writeRange(conn, name, off, n, *bp, len(head), &o.BytesServed)
	relayBufs.Put(bp)
	rec.StoreBytes(sent)
	if rec.Tracing() { // gate the FormatInt: no formatting on the untraced path
		rec.SetAttr("bytes", strconv.FormatInt(sent, 10))
	}
	if werr != nil {
		rec.Outcome(obs.ClassCanceled, "client: "+werr.Error())
		return false
	}
	return true
}

// ServeAddr starts the origin on addr (e.g. "127.0.0.1:0") and returns the
// listener; callers close it to stop.
func (o *Origin) ServeAddr(addr string) (net.Listener, error) { return listenAndServe(addr, o.Serve) }

// get sends req to addr over a fresh connection (dial nil = net.Dial)
// and returns the body of a 200/206 answer — nil for a HEAD — with the
// response head.
func get(dial func(network, addr string) (net.Conn, error), addr string, req *httpx.Request) (*httpx.Response, []byte, error) {
	if dial == nil {
		dial = net.Dial
	}
	conn, err := dial("tcp", addr)
	if err != nil {
		return nil, nil, err
	}
	defer conn.Close()
	if err := req.Write(conn); err != nil {
		return nil, nil, err
	}
	br := bufpool.Reader(conn)
	defer bufpool.Put(br)
	resp, err := httpx.ReadResponse(br)
	if err != nil {
		return nil, nil, err
	}
	if resp.Status != 200 && resp.Status != 206 {
		return nil, nil, fmt.Errorf("relay: status %d %s", resp.Status, resp.Reason)
	}
	if req.Method == "HEAD" {
		return resp, nil, nil
	}
	body, err := io.ReadAll(resp.Body)
	return resp, body, err
}

// Head asks the origin (or a relay, with an absolute-form target built by
// the caller) for an object's size without transferring content.
func Head(dial func(network, addr string) (net.Conn, error), addr, name string) (int64, error) {
	req := httpx.NewGet("/"+name, addr)
	req.Method = "HEAD"
	resp, _, err := get(dial, addr, req)
	if err != nil {
		return 0, err
	}
	if resp.ContentLength < 0 {
		return 0, errors.New("relay: head response missing content-length")
	}
	return resp.ContentLength, nil
}

// Fetch is a convenience client: it downloads [off, off+n) of object name
// from addr over a fresh connection, optionally via dial (nil = net.Dial),
// returning the body.
func Fetch(dial func(network, addr string) (net.Conn, error), addr, name string, off, n int64) ([]byte, error) {
	req := httpx.NewGet("/"+name, addr)
	if off != 0 || n >= 0 {
		req.SetRange(off, n)
	}
	_, body, err := get(dial, addr, req)
	return body, err
}

// FetchVia downloads [off, off+n) of object name from originAddr through
// the relay at relayAddr, optionally with a custom dialer for the
// client-to-relay hop.
func FetchVia(dial func(network, addr string) (net.Conn, error), relayAddr, originAddr, name string, off, n int64) ([]byte, error) {
	req := httpx.NewGet("http://"+originAddr+"/"+name, originAddr)
	req.SetRange(off, n)
	_, body, err := get(dial, relayAddr, req)
	return body, err
}
