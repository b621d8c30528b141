// HTTP server on top of the package codec: exact-path routing, a
// /debug/vars-style JSON endpoint for live counters, and graceful
// shutdown driven by a context. The daemons (origind, relayd,
// registryd) all expose their metrics through this one server instead
// of each hand-rolling listen/serve/shutdown plumbing.
//
// Like the rest of the package it deliberately avoids net/http: the
// endpoints only ever answer small GETs, and one codec for the whole
// repo keeps the wire behavior inspectable.

package httpx

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Handler answers one request: status code, extra headers (may be
// nil), and the body. The server adds content-length and
// connection: close itself.
type Handler func(req *Request) (status int, header map[string]string, body []byte)

// Mux routes requests to handlers by exact target path (any query
// string is ignored). Safe for concurrent use.
type Mux struct {
	mu     sync.RWMutex
	routes map[string]Handler
}

// NewMux returns an empty mux.
func NewMux() *Mux { return &Mux{routes: make(map[string]Handler)} }

// Handle registers h for the exact path (e.g. "/healthz").
func (m *Mux) Handle(path string, h Handler) {
	m.mu.Lock()
	defer m.mu.Unlock()
	m.routes[path] = h
}

func (m *Mux) lookup(target string) (Handler, bool) {
	if i := strings.IndexByte(target, '?'); i >= 0 {
		target = target[:i]
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	h, ok := m.routes[target]
	return h, ok
}

// JSONHandler serves whatever fn returns, marshaled as indented JSON —
// the /debug/vars idiom for live counters. fn runs per request, so it
// can snapshot atomics.
func JSONHandler(fn func() any) Handler {
	return func(*Request) (int, map[string]string, []byte) {
		b, err := json.MarshalIndent(fn(), "", "  ")
		if err != nil {
			return 500, nil, []byte(err.Error() + "\n")
		}
		return 200, map[string]string{"content-type": "application/json"}, append(b, '\n')
	}
}

// StatusText returns the reason phrase for the status codes the server
// emits.
func StatusText(code int) string {
	switch code {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 500:
		return "Internal Server Error"
	case 503:
		return "Service Unavailable"
	default:
		return "Status"
	}
}

// DefaultGrace bounds how long shutdown waits for in-flight handlers
// before force-closing their connections.
const DefaultGrace = 2 * time.Second

// Server serves mux-routed requests with context-driven graceful
// shutdown: when the context is canceled the listener closes
// immediately, in-flight handlers get Grace to finish, and whatever
// remains is force-closed.
type Server struct {
	Mux *Mux

	// Grace is the drain window after shutdown begins (DefaultGrace
	// when zero).
	Grace time.Duration

	mu    sync.Mutex
	conns map[net.Conn]struct{}
}

// Serve listens on addr and serves mux until ctx is canceled, then
// shuts down gracefully. It returns nil after a clean shutdown and the
// listen or accept error otherwise.
func Serve(ctx context.Context, mux *Mux, addr string) error {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return err
	}
	return (&Server{Mux: mux}).ServeListener(ctx, l)
}

// ServeListener serves s.Mux on an existing listener until ctx is
// canceled (the listener is closed either way).
func (s *Server) ServeListener(ctx context.Context, l net.Listener) error {
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		select {
		case <-ctx.Done():
			l.Close()
		case <-stop:
		}
	}()

	var wg sync.WaitGroup
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) || ctx.Err() != nil {
				return s.drain(&wg)
			}
			l.Close()
			return err
		}
		s.track(conn, true)
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer s.track(conn, false)
			defer conn.Close()
			s.serveConn(conn)
		}()
	}
}

func (s *Server) track(conn net.Conn, add bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if add {
		if s.conns == nil {
			s.conns = make(map[net.Conn]struct{})
		}
		s.conns[conn] = struct{}{}
	} else {
		delete(s.conns, conn)
	}
}

// drain waits up to Grace for in-flight handlers, then force-closes
// the connections still open and waits for their goroutines to exit so
// the caller never races a handler writing to a dead socket.
func (s *Server) drain(wg *sync.WaitGroup) error {
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	grace := s.Grace
	if grace <= 0 {
		grace = DefaultGrace
	}
	timer := time.NewTimer(grace)
	defer timer.Stop()
	select {
	case <-done:
		return nil
	case <-timer.C:
	}
	s.mu.Lock()
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	<-done
	return nil
}

func (s *Server) serveConn(conn net.Conn) {
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	req, err := ReadRequest(bufio.NewReader(conn))
	if err != nil {
		return
	}
	status, extra, body := s.respond(req)
	header := map[string]string{
		"content-length": strconv.Itoa(len(body)),
		"connection":     "close",
	}
	for k, v := range extra {
		header[strings.ToLower(k)] = v
	}
	if err := WriteResponseHead(conn, status, StatusText(status), header); err != nil {
		return
	}
	conn.Write(body)
}

func (s *Server) respond(req *Request) (int, map[string]string, []byte) {
	if req.Method != "GET" {
		return 405, nil, []byte("method not allowed\n")
	}
	h, ok := s.Mux.lookup(req.Target)
	if !ok {
		return 404, nil, []byte("not found\n")
	}
	return h(req)
}
