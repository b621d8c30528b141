package httpx

import (
	"bufio"
	"context"
	"encoding/json"
	"io"
	"net"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// get issues one GET over a fresh connection, the way the daemons'
// metrics endpoints are consumed.
func get(t *testing.T, addr, path string) (*Response, []byte) {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := NewGet(path, addr).Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func startServer(t *testing.T, s *Server) (addr string, cancel func(), done chan error) {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, stop := context.WithCancel(context.Background())
	done = make(chan error, 1)
	go func() { done <- s.ServeListener(ctx, l) }()
	return l.Addr().String(), stop, done
}

func TestMuxRoutesAndErrors(t *testing.T) {
	var hits atomic.Int64
	mux := NewReadyMux(func() any {
		return map[string]int64{"hits": hits.Add(1)}
	}, nil)
	addr, cancel, done := startServer(t, &Server{Mux: mux})
	defer cancel()

	resp, body := get(t, addr, "/healthz")
	if resp.Status != 200 || string(body) != "ok\n" {
		t.Fatalf("healthz: %d %q", resp.Status, body)
	}

	resp, body = get(t, addr, "/debug/vars?refresh=1")
	if resp.Status != 200 || resp.Header["content-type"] != "application/json" {
		t.Fatalf("vars: %d %v", resp.Status, resp.Header)
	}
	var vars map[string]int64
	if err := json.Unmarshal(body, &vars); err != nil {
		t.Fatalf("vars body %q: %v", body, err)
	}
	if vars["hits"] != 1 {
		t.Fatalf("vars = %v, want hits 1", vars)
	}

	if resp, _ := get(t, addr, "/nope"); resp.Status != 404 {
		t.Fatalf("unknown path: %d, want 404", resp.Status)
	}

	// Non-GET methods are rejected.
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	req := &Request{Method: "POST", Target: "/healthz", Proto: "HTTP/1.1",
		Header: map[string]string{"host": addr, "content-length": "0"}}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err = ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 405 {
		t.Fatalf("POST: %d, want 405", resp.Status)
	}

	cancel()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("server did not shut down")
	}
	if _, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		t.Fatal("listener still accepting after shutdown")
	}
}

// TestShutdownForceClosesStragglers cancels the context while a handler
// is deliberately stuck and checks the drain path force-closes its
// connection instead of hanging.
func TestShutdownForceClosesStragglers(t *testing.T) {
	started, release := make(chan struct{}), make(chan struct{})
	mux := NewMux()
	mux.Handle("/slow", func(*Request) (int, map[string]string, []byte) {
		close(started)
		<-release
		return 200, nil, []byte("late\n")
	})
	addr, cancel, done := startServer(t, &Server{Mux: mux, Grace: 10 * time.Millisecond})

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(5 * time.Second))
	if err := NewGet("/slow", addr).Write(conn); err != nil {
		t.Fatal(err)
	}
	<-started

	cancel()
	time.AfterFunc(200*time.Millisecond, func() { close(release) })
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("shutdown: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("drain hung on a stuck handler")
	}
	// The straggler's connection was torn down: the client sees EOF or a
	// reset, not a clean response.
	buf := make([]byte, 64)
	if n, err := conn.Read(buf); err == nil && strings.Contains(string(buf[:n]), "200") {
		t.Fatalf("got a clean response %q after force-close", buf[:n])
	}
}

func TestStatusText(t *testing.T) {
	for code, want := range map[int]string{200: "OK", 404: "Not Found", 405: "Method Not Allowed", 418: "Status"} {
		if got := StatusText(code); got != want {
			t.Fatalf("StatusText(%d) = %q, want %q", code, got, want)
		}
	}
}
