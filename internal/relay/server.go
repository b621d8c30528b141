package relay

import (
	"errors"
	"net"
	"sync"
	"time"

	"repro/internal/bufpool"
	"repro/internal/httpx"
)

// This file is the connection plumbing Relay and Origin share: the
// accept loop, the keep-alive request loop, and the in-flight count
// behind WaitIdle.

// keepAliveIdle is how long a connection may sit idle between requests
// before the server drops it.
const keepAliveIdle = 60 * time.Second

// acceptLoop accepts until the listener closes, one goroutine per
// connection.
func acceptLoop(l net.Listener, handle func(net.Conn)) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go handle(conn)
	}
}

// listenAndServe listens on addr and runs serve on the listener it
// returns; callers close it to stop.
func listenAndServe(addr string, serve func(net.Listener) error) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go serve(l)
	return l, nil
}

// inflight counts the requests a server is in the middle of — head read,
// record not yet finished — and lets a caller wait for none. Everything
// a request leaves behind (spans, wide event, histogram, health fold)
// lands at its record's Finish, after the client already holds the last
// byte; tests that read those and a graceful shutdown that archives
// them wait here instead of racing the handler. The zero value is ready.
type inflight struct {
	mu   sync.Mutex
	n    int
	idle sync.Cond // on mu; armed by the first add, before anyone can wait on it
}

func (f *inflight) add() {
	f.mu.Lock()
	if f.idle.L == nil {
		f.idle.L = &f.mu
	}
	f.n++
	f.mu.Unlock()
}

func (f *inflight) done() {
	f.mu.Lock()
	if f.n--; f.n == 0 {
		f.idle.Broadcast()
	}
	f.mu.Unlock()
}

func (f *inflight) wait() {
	f.mu.Lock()
	for f.n > 0 {
		f.idle.Wait()
	}
	f.mu.Unlock()
}

// keepAlive answers the requests arriving on conn in sequence through
// one, counting each in flight from the moment its head is read until
// one returns. The loop ends when one reports the connection spent, the
// client asks for "connection: close", or it hangs up or idles out.
//
// The loop owns each request it reads and releases it once one has
// returned: one must not keep the message, or its header map, past its
// return, nor hand it to another goroutine that would.
func (f *inflight) keepAlive(conn net.Conn, one func(net.Conn, *httpx.Request) bool) {
	defer conn.Close()
	br := bufpool.Reader(conn)
	defer bufpool.Put(br)
	for {
		// Idle keep-alive connections lapse so they cannot accumulate.
		conn.SetReadDeadline(time.Now().Add(keepAliveIdle))
		req, err := httpx.ReadRequest(br)
		if err != nil {
			return
		}
		conn.SetReadDeadline(time.Time{})
		f.add()
		again := one(conn, req)
		f.done()
		closing := req.Header["connection"] == "close"
		req.Release()
		if !again || closing {
			return
		}
	}
}
