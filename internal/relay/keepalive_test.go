package relay

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// Tests for what the keep-alive loop owns: the request heads it reads
// and recycles once the handler is done with them, and the upstream leg
// an idle client connection holds open.

// TestRecycledHeadsStayWithTheirRequest runs keep-alive clients through
// one relay at once, each request with its own range and x-trace value,
// while the relay and the origin recycle every head they read: each
// response must carry its own request's range and bytes, and the origin
// must have served each trace exactly its own range.
func TestRecycledHeadsStayWithTheirRequest(t *testing.T) {
	const clients, perClient, size = 8, 2, 1_000_000
	origin := NewOriginServer()
	origin.Put("big.bin", size)
	origin.Flight = flight.NewRecorder(clients*perClient, true)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ol.Close() })
	originAddr := ol.Addr().String()
	r, relayAddr := startRelay(t) // no spans: the client's x-trace crosses the hop as sent

	type sent struct {
		sc  obs.SpanContext
		off int64
		n   int64
	}
	reqs := make([][]sent, clients)
	for c := range reqs {
		for i := 0; i < perClient; i++ {
			k := int64(c*perClient + i)
			reqs[c] = append(reqs[c], sent{
				sc:  obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()},
				off: 1000 * k, n: 10_000 + 1000*k,
			})
		}
	}
	exchange := func(conn net.Conn, br *bufio.Reader, s sent) error {
		req := httpx.NewGet("http://"+originAddr+"/big.bin", originAddr)
		delete(req.Header, "connection")
		req.SetRange(s.off, s.n)
		req.Header[obs.TraceHeader] = s.sc.Header()
		if err := req.Write(conn); err != nil {
			return err
		}
		resp, err := httpx.ReadResponse(br)
		if err != nil {
			return err
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			return err
		}
		if want := httpx.ContentRange(s.off, s.n, size); resp.Status != 206 || resp.Header["content-range"] != want {
			return fmt.Errorf("asked for %s: status %d, content-range %q", want, resp.Status, resp.Header["content-range"])
		}
		if int64(len(body)) != s.n || !VerifyRange("big.bin", s.off, body) {
			return fmt.Errorf("asked for %d+%d: %d bytes, canonical %v", s.off, s.n, len(body), VerifyRange("big.bin", s.off, body))
		}
		return nil
	}

	var wg sync.WaitGroup
	errs := make(chan error, clients*perClient)
	for c := range reqs {
		conn, err := net.Dial("tcp", relayAddr)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		conn.SetDeadline(time.Now().Add(20 * time.Second)) // a hung relay fails the test, not the suite
		wg.Add(1)
		go func(mine []sent) {
			defer wg.Done()
			br := bufio.NewReader(conn)
			for _, s := range mine {
				if err := exchange(conn, br, s); err != nil {
					errs <- err
					return
				}
			}
		}(reqs[c])
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	r.WaitIdle()
	origin.WaitIdle()

	served := map[obs.TraceID][]obs.Span{}
	for _, s := range origin.Flight.Spans() {
		if s.Phase == "serve" {
			served[s.Trace] = append(served[s.Trace], s)
		}
	}
	for _, mine := range reqs {
		for _, s := range mine {
			got := served[s.sc.Trace]
			if len(got) != 1 || got[0].Parent != s.sc.Span || got[0].Attrs["bytes"] != strconv.FormatInt(s.n, 10) {
				t.Errorf("trace of the %d-byte request: origin served %+v", s.n, got)
			}
		}
	}
}

// TestIdleClientPinsOneUpstream states the cost of the per-connection
// leg: an idle client connection holds at most one upstream connection
// (and the origin goroutine serving it), and closing the client
// connection releases both. The upstream is a bare listener answering
// one request per connection by hand, then reading until its peer goes.
func TestIdleClientPinsOneUpstream(t *testing.T) {
	const clients, size = 4, int64(1 << 20)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	var mu sync.Mutex
	accepts := 0
	released := make(chan error, 2*clients)
	go func() {
		for {
			conn, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			accepts++
			mu.Unlock()
			go func() {
				defer conn.Close()
				br := bufio.NewReader(conn)
				if !answerRange(conn, br, "obj.bin", size) {
					released <- errors.New("upstream: no request to answer")
					return
				}
				// The handler is now pinned by the relay's idle leg. The
				// deadline is the failure guard only: the relay is expected
				// to close the leg, and this read to see EOF, as soon as its
				// client connection goes.
				conn.SetReadDeadline(time.Now().Add(5 * time.Second))
				_, err := br.ReadByte()
				released <- err
			}()
		}
	}()
	upstream := l.Addr().String()
	_, relayAddr := startRelay(t)

	var conns []*keptConn
	for i := 0; i < clients; i++ {
		c := dialKept(t, relayAddr)
		c.get(upstream, "obj.bin", int64(i)*1000, 10_000)
		conns = append(conns, c)
	}
	mu.Lock()
	n := accepts
	mu.Unlock()
	if n != clients {
		t.Fatalf("%d idle client connections: upstream accepted %d, want one each", clients, n)
	}
	for _, c := range conns {
		c.conn.Close()
	}
	for i := 0; i < clients; i++ {
		if err := <-released; err != io.EOF {
			t.Fatalf("upstream read after its client closed: %v, want EOF", err)
		}
	}
}
