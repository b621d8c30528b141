package relay

import (
	"bufio"
	"bytes"
	"io"
	"net"
	"reflect"
	"sync"
	"testing"
	"testing/iotest"

	"repro/internal/httpx"
	"repro/internal/obs/flight"
)

// Tests for how many writes carry a response: the head goes out with
// the first body bytes, from the origin, through a forward and from the
// cache, and alone only when there is no body to go with it.

// writeLog wraps a server's listener: every connection it accepts
// records the Write calls made on it. The conn embeds *net.TCPConn, so
// a writev (net.Buffers.WriteTo) still reaches the socket through the
// promoted method and is not recorded as Writes.
type writeLog struct {
	net.Listener
	mu     sync.Mutex
	writes []write
}

// write is one recorded Write: its length, and the length of the
// response head it starts with (0 when it starts with body bytes).
type write struct{ n, head int }

type countConn struct {
	*net.TCPConn
	log *writeLog
}

func (l *writeLog) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return &countConn{TCPConn: c.(*net.TCPConn), log: l}, nil
}

// Write is recorded on entry: once a client holds the last byte of a
// response, every write that carried it is in the log.
func (c *countConn) Write(p []byte) (int, error) {
	w := write{n: len(p)}
	if bytes.HasPrefix(p, []byte("HTTP/1.1 ")) {
		if i := bytes.Index(p, []byte("\r\n\r\n")); i >= 0 {
			w.head = i + 4
		}
	}
	c.log.mu.Lock()
	c.log.writes = append(c.log.writes, w)
	c.log.mu.Unlock()
	return c.TCPConn.Write(p)
}

// since returns the writes recorded after the first from.
func (l *writeLog) since(from int) []write {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]write(nil), l.writes[from:]...)
}

func (l *writeLog) count() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.writes)
}

// serveLogged runs serve on a loopback listener whose connections log
// their writes, and returns the log and the address.
func serveLogged(t testing.TB, serve func(net.Listener) error) (*writeLog, string) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	log := &writeLog{Listener: l}
	go serve(log)
	return log, l.Addr().String()
}

// roundTrip sends one keep-alive request on c and reads the whole
// answer, returning its head and body (none for a HEAD).
func (c *keptConn) roundTrip(method, upstream, name string, off, n int64) (*httpx.Response, []byte) {
	c.t.Helper()
	c.send(method, upstream, name, off, n)
	resp, err := httpx.ReadResponse(c.br)
	if err != nil {
		c.t.Fatal(err)
	}
	if method == "HEAD" {
		return resp, nil
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		c.t.Fatal(err)
	}
	return resp, body
}

func TestOneWritePerOriginResponse(t *testing.T) {
	o := NewOriginServer()
	o.Put("obj.bin", 1<<20)
	o.Put("empty.bin", 0)
	log, addr := serveLogged(t, o.Serve)
	c := dialKept(t, addr)
	for _, tc := range []struct {
		method, name string
		n            int64
		body         bool
	}{
		{"GET", "obj.bin", 100_000, true},
		{"HEAD", "obj.bin", 100_000, false},
		{"GET", "empty.bin", 0, false},
	} {
		from := log.count()
		var resp *httpx.Response
		var body []byte
		if tc.n > 0 {
			resp, body = c.roundTrip(tc.method, addr, tc.name, 0, tc.n)
		} else {
			// A zero-length object has no satisfiable range: ask for it whole.
			req := httpx.NewGet("/"+tc.name, addr)
			delete(req.Header, "connection")
			if err := req.Write(c.conn); err != nil {
				t.Fatal(err)
			}
			var err error
			if resp, err = httpx.ReadResponse(c.br); err != nil {
				t.Fatal(err)
			}
			body, _ = io.ReadAll(resp.Body)
		}
		if tc.body && (int64(len(body)) != tc.n || !VerifyRange(tc.name, 0, body)) {
			t.Fatalf("%s %s: %d bytes, not the canonical %d", tc.method, tc.name, len(body), tc.n)
		}
		ws := log.since(from)
		want := 0
		if tc.body {
			want = int(tc.n)
		}
		if len(ws) != 1 || ws[0].head == 0 || ws[0].n != ws[0].head+want {
			t.Fatalf("%s %s (status %d): writes %+v, want one write of the head and %d body bytes", tc.method, tc.name, resp.Status, ws, want)
		}
	}
}

func TestForwardSendsHeadWithBody(t *testing.T) {
	o := NewOriginServer()
	o.Put("obj.bin", 1<<20)
	o.Put("empty.bin", 0)
	ol, err := o.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ol.Close() })
	originAddr := ol.Addr().String()
	for _, opts := range [][]Option{nil, {WithCache(4 << 20)}} {
		r := New(opts...)
		log, relayAddr := serveLogged(t, r.Serve)
		c := dialKept(t, relayAddr)

		// The origin sends the head with the body, so the leg's reader
		// holds body bytes the moment the head is parsed: the relay's
		// first write must carry some of them (a miss, when cached).
		from := log.count()
		if _, body := c.roundTrip("GET", originAddr, "obj.bin", 0, 100_000); len(body) != 100_000 || !VerifyRange("obj.bin", 0, body) {
			t.Fatalf("cache=%v: forward delivered %d bytes, not the canonical 100000", r.cache != nil, len(body))
		}
		ws := log.since(from)
		total := 0
		for _, w := range ws {
			total += w.n
		}
		if len(ws) == 0 || ws[0].head == 0 || ws[0].n == ws[0].head || total != ws[0].head+100_000 {
			t.Fatalf("cache=%v: forward writes %+v, want the head to go out with the first body bytes", r.cache != nil, ws)
		}

		// HEAD and a zero-length body: one head-only write.
		from = log.count()
		c.roundTrip("HEAD", originAddr, "obj.bin", 0, 100_000)
		req := httpx.NewGet("http://"+originAddr+"/empty.bin", originAddr)
		delete(req.Header, "connection")
		if err := req.Write(c.conn); err != nil {
			t.Fatal(err)
		}
		resp, err := httpx.ReadResponse(c.br)
		if err != nil || resp.ContentLength != 0 {
			t.Fatalf("cache=%v: empty object: %+v, %v", r.cache != nil, resp, err)
		}
		if ws := log.since(from); len(ws) != 2 || ws[0].n != ws[0].head || ws[1].n != ws[1].head || ws[0].head == 0 || ws[1].head == 0 {
			t.Fatalf("cache=%v: HEAD and empty GET writes %+v, want one head-only write each", r.cache != nil, ws)
		}

		if r.cache == nil {
			continue
		}
		// A hit sends head and span in one writev: no Write at all.
		from = log.count()
		resp, body := c.roundTrip("GET", originAddr, "obj.bin", 0, 100_000)
		if resp.Header["x-cache"] != "hit" || len(body) != 100_000 || !VerifyRange("obj.bin", 0, body) {
			t.Fatalf("repeat: x-cache %q, %d bytes; want a canonical 100000-byte hit", resp.Header["x-cache"], len(body))
		}
		if ws := log.since(from); len(ws) != 0 {
			t.Fatalf("cached hit: Writes %+v, want head and span in one writev", ws)
		}
	}
}

// An upstream that sends a head promising a body and closes before any
// body byte: whether or not the head could have waited for body bytes,
// the client gets the head and then a short read, the relay folds the
// exchange failed and drops the leg — plain and caching relay alike.
func TestHeadThenCloseFailsTheForward(t *testing.T) {
	upstream := scriptedUpstream(t, func(_ int, conn net.Conn, br *bufio.Reader) {
		if _, err := httpx.ReadRequest(br); err == nil {
			httpx.WriteResponseHead(conn, 200, "OK", map[string]string{"content-length": "1000"})
		}
	})
	var replies [2]reply
	for i, opts := range [][]Option{nil, {WithCache(1 << 20)}} {
		var d legDialer
		r, relayAddr, mon, rec := legRelay(t, &d, opts...)
		replies[i] = exchange(t, relayAddr, upstream, "obj.bin", "", -1)
		r.WaitIdle()
		if evs := rec.Events(flight.Filter{}); len(evs) != 1 || evs[0].Class != "failed" {
			t.Fatalf("relay %d recorded %+v, want one failed event", i, evs)
		}
		if ph, _ := mon.PathHealth(upstream); ph.Ok != 0 || ph.Failed != 1 {
			t.Fatalf("relay %d folded ok=%d failed=%d, want the truncation as one failure", i, ph.Ok, ph.Failed)
		}
		if _, live, _ := d.counts(); live != 0 {
			t.Fatalf("relay %d kept %d legs after a truncated forward", i, live)
		}
	}
	plain, cached := replies[0], replies[1]
	if plain.status != 200 || plain.header["content-length"] != "1000" || len(plain.body) != 0 || !plain.failed {
		t.Fatalf("client saw status %d, %v, %d bytes, failed=%v; want the head and a short read",
			plain.status, plain.header, len(plain.body), plain.failed)
	}
	delete(cached.header, "x-cache")
	if !reflect.DeepEqual(plain, cached) {
		t.Fatalf("client-visible difference: plain %+v, cached %+v", plain, cached)
	}
}

// The head waits for body bytes only when the leg's reader holds some,
// so the first read cannot fail with it pending; should it, the head
// still reaches the client, alone, ahead of the short read.
func TestPendingHeadGoesAloneWhenTheFirstReadFails(t *testing.T) {
	client, server := net.Pipe()
	defer client.Close()
	buf := make([]byte, 256)
	head := httpx.AppendResponseHead(buf[:0], 200, "OK", map[string]string{"content-length": "1000"})
	resp := &httpx.Response{Status: 200, ContentLength: 1000, Body: iotest.ErrReader(io.ErrUnexpectedEOF)}
	type result struct {
		got        int64
		werr, rerr error
	}
	done := make(chan result, 1)
	go func() {
		var r Relay
		var rec flight.Record
		got, werr, rerr := r.copyStream(server, nil, resp, &rec, nil, buf, len(head), nil)
		server.Close()
		done <- result{got, werr, rerr}
	}()
	sent, _ := io.ReadAll(client)
	if res := <-done; !bytes.Equal(sent, head) || res.got != 0 || res.werr != nil || res.rerr != io.ErrUnexpectedEOF {
		t.Fatalf("client got %q; copy returned %+v; want the head alone and the read error", sent, res)
	}
}

// BenchmarkResponseWrites prices an 8 MiB response over loopback on a
// kept connection, served by the origin and forwarded by an uncached
// relay, and reports the writes that carried it (writev aside) as
// writes/op. The logged relay's client connections are wrapped, so it
// copies; the unwrapped one splices, and its writes are not seen.
func BenchmarkResponseWrites(b *testing.B) {
	const n = 8 << 20
	o := NewOriginServer()
	o.Put("bulk.bin", n)
	originLog, originAddr := serveLogged(b, o.Serve)
	relayLog, relayAddr := serveLogged(b, New().Serve)
	rl, err := New().ServeAddr("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { rl.Close() })
	for _, tc := range []struct {
		name   string
		addr   string
		target string
		log    *writeLog // nil: not logged
	}{
		{"origin", originAddr, "/bulk.bin", originLog},
		{"forward", relayAddr, "http://" + originAddr + "/bulk.bin", relayLog},
		{"forward_spliced", rl.Addr().String(), "http://" + originAddr + "/bulk.bin", nil},
	} {
		b.Run(tc.name, func(b *testing.B) {
			conn, err := net.Dial("tcp", tc.addr)
			if err != nil {
				b.Fatal(err)
			}
			defer conn.Close()
			br := bufio.NewReader(conn)
			get := func() {
				req := httpx.NewGet(tc.target, originAddr)
				delete(req.Header, "connection")
				if err := req.Write(conn); err != nil {
					b.Fatal(err)
				}
				resp, err := httpx.ReadResponse(br)
				if err != nil {
					b.Fatal(err)
				}
				if got, err := io.Copy(io.Discard, resp.Body); err != nil || got != n {
					b.Fatalf("%s: %d of %d bytes, %v", tc.name, got, n, err)
				}
			}
			get() // the buffer pools, and the relay's leg
			var from int
			if tc.log != nil {
				from = tc.log.count()
			}
			b.SetBytes(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				get()
			}
			b.StopTimer()
			if tc.log != nil {
				b.ReportMetric(float64(tc.log.count()-from)/float64(b.N), "writes/op")
			}
		})
	}
}
