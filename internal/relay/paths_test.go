package relay

import (
	"bufio"
	"bytes"
	"errors"
	"io"
	"net"
	"runtime"
	"strconv"
	"sync"
	"syscall"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Tests that hold the relay's two ways of moving a body to the same
// guarantees: spliceStream, for a body longer than one chunk between two
// plain TCP connections, and copyStream, for everything else — here a
// wrapped upstream connection, and a cache fill that tees the body.

// forwardPath is one way a relay can be set up to forward a body, and
// the function its handler then streams the body in.
type forwardPath struct {
	name   string
	wrap   bool     // hand the relay upstream conns that are not plain TCP
	opts   []Option // more options for the relay
	stream string   // spliceStream or copyStream
}

func forwardPaths() []forwardPath {
	spliced := "spliceStream"
	if runtime.GOOS != "linux" {
		spliced = "copyStream"
	}
	return []forwardPath{
		{name: "splice", stream: spliced},
		{name: "wrapped", wrap: true, stream: "copyStream"},
		{name: "teeing", opts: []Option{WithCache(16 << 20)}, stream: "copyStream"},
	}
}

// legLog is a relay's upstream dialer that keeps every conn it dials,
// so that a test can see whether the relay closed it.
type legLog struct {
	wrap  bool
	mu    sync.Mutex
	conns []net.Conn
}

func (l *legLog) dial(network, addr string) (net.Conn, error) {
	c, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	l.mu.Lock()
	l.conns = append(l.conns, c)
	l.mu.Unlock()
	if l.wrap {
		return struct{ net.Conn }{c}, nil
	}
	return c, nil
}

// counts returns the conns dialled, and those the relay has not closed.
func (l *legLog) counts() (dialled, open int) {
	l.mu.Lock()
	defer l.mu.Unlock()
	for _, c := range l.conns {
		rc, err := c.(syscall.Conn).SyscallConn()
		if err == nil && rc.Control(func(uintptr) {}) == nil {
			open++
		}
	}
	return len(l.conns), open
}

// pathRelay starts a relay set up as p, with a health monitor and a
// flight store, whose upstream legs l dials.
func pathRelay(t *testing.T, p forwardPath, opts ...Option) (r *Relay, addr string, mon *obs.HealthMonitor, rec *flight.Recorder, l *legLog) {
	t.Helper()
	l = &legLog{wrap: p.wrap}
	mon = obs.NewHealthMonitor(obs.HealthConfig{Clock: obs.WallClock()})
	rec = flight.NewRecorder(16, false)
	all := append([]Option{WithDialer(l.dial), WithHealthMonitor(mon), WithFlight(rec)}, p.opts...)
	r = New(append(all, opts...)...)
	ln, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	return r, ln.Addr().String(), mon, rec, l
}

// waitStreamingIn waits until some goroutine is inside fn, a method of
// Relay: the handler is streaming a body the way its path says.
func waitStreamingIn(t *testing.T, fn string) {
	t.Helper()
	want := []byte("relay.(*Relay)." + fn + "(")
	buf := make([]byte, 1<<20)
	for deadline := time.Now().Add(10 * time.Second); ; {
		if n := runtime.Stack(buf, true); bytes.Contains(buf[:n], want) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("no goroutine in %s", want)
		}
		time.Sleep(time.Millisecond)
	}
}

// An upstream that fails, or a client that hangs up, partway through a
// body longer than a chunk. The upstream sends the head and sent bytes
// of the body in one write and waits; once the client holds them and
// the handler is streaming, the fault fires.
func TestForwardPathsMidBodyFaults(t *testing.T) {
	const name, size, sent = "obj.bin", 4 << 20, 200 << 10
	const stall = 500 * time.Millisecond
	for _, p := range forwardPaths() {
		for _, fault := range []string{"close", "reset", "stall", "hangup"} {
			t.Run(p.name+"/"+fault, func(t *testing.T) {
				gate, done := make(chan struct{}), make(chan struct{})
				t.Cleanup(func() { close(done) })
				upstream := scriptedUpstream(t, func(_ int, conn net.Conn, br *bufio.Reader) {
					if _, err := httpx.ReadRequest(br); err != nil {
						return
					}
					msg := httpx.AppendResponseHead(nil, 200, "OK", map[string]string{"content-length": strconv.Itoa(size)})
					msg = append(msg, make([]byte, sent)...)
					FillRange(name, 0, msg[len(msg)-sent:])
					if _, err := conn.Write(msg); err != nil {
						return
					}
					select {
					case <-gate:
					case <-done:
						return
					}
					switch fault {
					case "reset":
						conn.(*net.TCPConn).SetLinger(0)
					case "stall":
						<-done
					case "hangup":
						WriteRange(conn, name, sent, size-sent, nil)
					}
				})
				r, relayAddr, mon, rec, legs := pathRelay(t, p, WithUpstreamStall(stall))

				c := dialKept(t, relayAddr)
				c.send("GET", upstream, name, 0, size)
				resp, err := httpx.ReadResponse(c.br)
				if err != nil || resp.ContentLength != size {
					t.Fatalf("response head: %+v, %v", resp, err)
				}
				prefix := make([]byte, sent)
				if _, err := io.ReadFull(resp.Body, prefix); err != nil || !VerifyRange(name, 0, prefix) {
					t.Fatalf("the first %d bytes: %v, canonical %v", sent, err, VerifyRange(name, 0, prefix))
				}
				waitStreamingIn(t, p.stream)
				start := time.Now()
				if fault == "hangup" {
					c.conn.Close()
				}
				close(gate)
				if fault != "hangup" {
					rest, _ := io.ReadAll(resp.Body)
					if len(rest) != 0 {
						t.Fatalf("%d bytes past the %d the upstream sent", len(rest), sent)
					}
					if _, err := c.br.ReadByte(); err == nil {
						t.Fatal("client connection survived a truncated forward")
					}
				}
				r.WaitIdle()
				if fault == "stall" && time.Since(start) > stall+2*time.Second {
					t.Fatalf("a stalled upstream held the forward %v, past its %v guard", time.Since(start), stall)
				}
				evs := rec.Events(flight.Filter{})
				ph, folded := mon.PathHealth(upstream)
				if fault == "hangup" {
					if len(evs) != 1 || evs[0].Class != "canceled" {
						t.Fatalf("recorded %+v, want one canceled forward", evs)
					}
					if folded && (ph.Ok != 0 || ph.Failed != 0) {
						t.Fatalf("a client hang-up folded ok=%d failed=%d against the upstream", ph.Ok, ph.Failed)
					}
				} else {
					if len(evs) != 1 || evs[0].Class != "failed" || evs[0].Bytes != sent {
						t.Fatalf("recorded %+v, want one failed forward of %d bytes", evs, sent)
					}
					if ph.Ok != 0 || ph.Failed != 1 {
						t.Fatalf("health ok=%d failed=%d, want the upstream's fault as one failure", ph.Ok, ph.Failed)
					}
					if got := r.BytesRelayed.Load(); got != sent {
						t.Fatalf("BytesRelayed %d, want the %d bytes the client got", got, sent)
					}
				}
				if _, open := legs.counts(); open != 0 {
					t.Fatalf("%d legs open after a forward cut short", open)
				}
			})
		}
	}
}

// Two whole bodies on one client connection, disjoint so that the
// caching relay misses both: every byte is delivered and counted once,
// and the leg is kept.
func TestForwardPathsDeliverExactly(t *testing.T) {
	for _, p := range forwardPaths() {
		t.Run(p.name, func(t *testing.T) {
			_, originAddr := startOrigin(t)
			r, relayAddr, mon, rec, legs := pathRelay(t, p)
			c := dialKept(t, relayAddr)
			c.get(originAddr, "big.bin", 1, 500_000)
			c.get(originAddr, "big.bin", 600_000, 400_000)
			r.WaitIdle()
			if got := r.BytesRelayed.Load(); got != 900_000 {
				t.Fatalf("BytesRelayed %d, want 900000", got)
			}
			evs := rec.Events(flight.Filter{})
			if len(evs) != 2 || evs[0].Bytes != 400_000 || evs[1].Bytes != 500_000 {
				t.Fatalf("recorded %+v, want forwards of 500000 and 400000 bytes", evs)
			}
			if ph, _ := mon.PathHealth(originAddr); ph.Ok != 2 || ph.Failed != 0 {
				t.Fatalf("health ok=%d failed=%d, want 2/0", ph.Ok, ph.Failed)
			}
			if dialled, open := legs.counts(); dialled != 1 || open != 1 {
				t.Fatalf("%d legs open of %d dialled, want one kept across both", open, dialled)
			}
		})
	}
}

// An upstream that is slow but never silent for as long as the stall
// guard: each read or drain re-arms it, so the body arrives whole long
// after the guard's first deadline would have passed.
func TestForwardPathsStallGuardRearms(t *testing.T) {
	const name, piece, pieces = "obj.bin", 64 << 10, 8
	const gap, stall = 100 * time.Millisecond, 300 * time.Millisecond
	for _, p := range forwardPaths() {
		t.Run(p.name, func(t *testing.T) {
			upstream := scriptedUpstream(t, func(_ int, conn net.Conn, br *bufio.Reader) {
				if _, err := httpx.ReadRequest(br); err != nil {
					return
				}
				httpx.WriteResponseHead(conn, 200, "OK", map[string]string{"content-length": strconv.Itoa(piece * pieces)})
				for i := 0; i < pieces; i++ {
					time.Sleep(gap)
					if _, err := WriteRange(conn, name, int64(i*piece), piece, nil); err != nil {
						return
					}
				}
			})
			r, relayAddr, mon, _, _ := pathRelay(t, p, WithUpstreamStall(stall))
			c := dialKept(t, relayAddr)
			c.send("GET", upstream, name, 0, piece*pieces)
			resp, err := httpx.ReadResponse(c.br)
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(resp.Body)
			if err != nil || len(body) != piece*pieces || !VerifyRange(name, 0, body) {
				t.Fatalf("got %d of %d bytes, %v", len(body), piece*pieces, err)
			}
			if ph := foldedHealth(t, r, mon, upstream); ph.Ok != 1 || ph.Failed != 0 {
				t.Fatalf("health ok=%d failed=%d, want a slow upstream's body as a success", ph.Ok, ph.Failed)
			}
		})
	}
}

// tcpPair returns the two ends of a loopback TCP connection.
func tcpPair(t *testing.T) (a, b *net.TCPConn) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	d, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	acc, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close(); acc.Close() })
	return d.(*net.TCPConn), acc.(*net.TCPConn)
}

// Both streams send a pending head in one write with the body bytes the
// leg's reader already holds; the splice then writes nothing more from
// user space.
func TestStreamsSendHeadWithBufferedBytes(t *testing.T) {
	const name, size = "obj.bin", 512 << 10
	type streamFunc func(r *Relay, dst net.Conn, src *net.TCPConn, resp *httpx.Response, rec *flight.Record, buf []byte, head, buffered int) (int64, error, error)
	for _, tc := range []struct {
		name   string
		stream streamFunc
	}{
		{"copy", func(r *Relay, dst net.Conn, src *net.TCPConn, resp *httpx.Response, rec *flight.Record, buf []byte, head, _ int) (int64, error, error) {
			return r.copyStream(dst, src, resp, rec, nil, buf, head, nil)
		}},
		{"splice", func(r *Relay, dst net.Conn, src *net.TCPConn, resp *httpx.Response, rec *flight.Record, buf []byte, head, buffered int) (int64, error, error) {
			got, werr, rerr, ok := r.spliceStream(dst, src, resp, rec, buf, head, buffered)
			if !ok {
				return 0, nil, errNotSpliced
			}
			return got, werr, rerr
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "splice" && runtime.GOOS != "linux" {
				t.Skip("splice(2) is Linux only")
			}
			origin, src := tcpPair(t)
			client, relaySide := tcpPair(t)
			go func() {
				// Head and the first body bytes in one write, as the origin sends them.
				msg := httpx.AppendResponseHead(nil, 200, "OK", map[string]string{"content-length": strconv.Itoa(size)})
				msg = append(msg, make([]byte, 1000)...)
				FillRange(name, 0, msg[len(msg)-1000:])
				if _, err := origin.Write(msg); err == nil {
					WriteRange(origin, name, 1000, size-1000, nil)
				}
			}()
			br := bufio.NewReader(src)
			resp, err := httpx.ReadResponse(br)
			if err != nil {
				t.Fatal(err)
			}
			buffered := br.Buffered()
			buf := make([]byte, streamChunk+headRoom)
			head := httpx.AppendResponseHead(buf[:0], resp.Status, resp.Reason, resp.Header)
			log := &writeLog{}
			var r Relay
			var rec flight.Record
			type result struct {
				got        int64
				werr, rerr error
			}
			done := make(chan result, 1)
			go func() {
				got, werr, rerr := tc.stream(&r, &countConn{TCPConn: relaySide, log: log}, src, resp, &rec, buf, len(head), buffered)
				done <- result{got, werr, rerr}
			}()
			cr, err := httpx.ReadResponse(bufio.NewReader(client))
			if err != nil {
				t.Fatal(err)
			}
			body, err := io.ReadAll(io.LimitReader(cr.Body, size))
			if err != nil || len(body) != size || !VerifyRange(name, 0, body) {
				t.Fatalf("client got %d bytes, %v, canonical %v", len(body), err, VerifyRange(name, 0, body))
			}
			if res := <-done; res.got != size || res.werr != nil || res.rerr != nil {
				t.Fatalf("stream returned %+v", res)
			}
			ws := log.since(0)
			if buffered == 0 || len(ws) == 0 || ws[0].head != len(head) || ws[0].n != len(head)+buffered {
				t.Fatalf("%d bytes buffered, %d-byte head: writes %+v, want the head and the buffered bytes in the first", buffered, len(head), ws)
			}
			if tc.name == "splice" && len(ws) != 1 {
				t.Fatalf("spliced body: writes %+v, want only the first", ws)
			}
			if got := r.BytesRelayed.Load(); got != size || rec.Bytes() != size {
				t.Fatalf("counted %d and %d bytes, want %d", got, rec.Bytes(), size)
			}
		})
	}
}

var errNotSpliced = errors.New("spliceStream did nothing")
