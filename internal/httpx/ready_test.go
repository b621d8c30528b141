package httpx

import (
	"bufio"
	"context"
	"errors"
	"io"
	"net"
	"strings"
	"testing"
	"time"
)

// getStatus performs one GET against a live test server and returns
// the status and body.
func getStatus(t *testing.T, addr, path string) (int, string) {
	t.Helper()
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(2 * time.Second))
	req := NewGet(path, addr)
	if err := req.Write(conn); err != nil {
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
	return resp.Status, string(body)
}

// serveReadyMux starts a NewReadyMux server for the test's lifetime.
func serveReadyMux(t *testing.T, ready *Ready) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	srv := &Server{Mux: NewReadyMux(func() any { return map[string]int{"x": 1} }, ready)}
	done := make(chan struct{})
	go func() { defer close(done); srv.ServeListener(ctx, l) }()
	t.Cleanup(func() { cancel(); <-done })
	return l.Addr().String()
}

func TestHealthzReflectsLivenessChecks(t *testing.T) {
	ready := NewReady()
	alive := true
	ready.AddLive("listener", func() error {
		if !alive {
			return errors.New("listener closed")
		}
		return nil
	})
	addr := serveReadyMux(t, ready)

	if status, body := getStatus(t, addr, "/healthz"); status != 200 || body != "ok\n" {
		t.Fatalf("/healthz live = %d %q", status, body)
	}
	alive = false
	status, body := getStatus(t, addr, "/healthz")
	if status != 503 {
		t.Fatalf("/healthz dead = %d, want 503", status)
	}
	if !strings.Contains(body, "listener: listener closed") {
		t.Fatalf("failure body %q does not name the check", body)
	}
}

func TestReadyzDistinctFromHealthz(t *testing.T) {
	ready := NewReady()
	ready.AddLive("listener", func() error { return nil })
	registryUp := false
	ready.AddReady("registry", func() error {
		if !registryUp {
			return errors.New("no heartbeat accepted yet")
		}
		return nil
	})
	addr := serveReadyMux(t, ready)

	// Alive but not ready: the distinction the old endpoint conflated.
	if status, _ := getStatus(t, addr, "/healthz"); status != 200 {
		t.Fatalf("/healthz = %d, want 200 while only readiness fails", status)
	}
	status, body := getStatus(t, addr, "/readyz")
	if status != 503 || !strings.Contains(body, "registry:") {
		t.Fatalf("/readyz = %d %q, want 503 naming registry", status, body)
	}
	registryUp = true
	if status, body := getStatus(t, addr, "/readyz"); status != 200 || body != "ok\n" {
		t.Fatalf("/readyz after recovery = %d %q", status, body)
	}
}

func TestReadyMultipleFailuresSorted(t *testing.T) {
	ready := NewReady()
	ready.AddReady("zeta", func() error { return errors.New("z") })
	ready.AddReady("alpha", func() error { return errors.New("a") })
	addr := serveReadyMux(t, ready)
	status, body := getStatus(t, addr, "/readyz")
	if status != 503 {
		t.Fatalf("status = %d", status)
	}
	if !strings.HasPrefix(body, "alpha: a\nzeta: z") {
		t.Fatalf("failures not sorted: %q", body)
	}
	if err := ready.ReadyErr(); err == nil || !strings.Contains(err.Error(), "2 check(s)") {
		t.Fatalf("ReadyErr = %v", err)
	}
	if err := ready.Live(); err != nil {
		t.Fatalf("Live = %v, want nil (only readiness checks fail)", err)
	}
}

func TestNilReadyStaysUnconditional(t *testing.T) {
	addr := serveReadyMux(t, nil)
	if status, body := getStatus(t, addr, "/healthz"); status != 200 || body != "ok\n" {
		t.Fatalf("no-check /healthz = %d %q", status, body)
	}
	if status, _ := getStatus(t, addr, "/readyz"); status != 200 {
		t.Fatalf("no-check /readyz = %d", status)
	}
	if status, body := getStatus(t, addr, "/debug/vars"); status != 200 || !strings.Contains(body, `"x": 1`) {
		t.Fatalf("/debug/vars = %d %q", status, body)
	}
}
