package registry

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"
)

func TestRegisterAndList(t *testing.T) {
	var s Server
	if err := s.Register("a", "1.2.3.4:80", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("b", "5.6.7.8:80", time.Minute); err != nil {
		t.Fatal(err)
	}
	got := s.List()
	if len(got) != 2 || got[0].Name != "a" || got[1].Name != "b" {
		t.Fatalf("list = %+v", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	var s Server
	cases := []struct {
		name, addr string
		ttl        time.Duration
		want       error
	}{
		{"", "x:1", time.Minute, ErrBadName},
		{"a", "", time.Minute, ErrBadName},
		{"a b", "x:1", time.Minute, ErrBadName},
		{"a", "x:1\n", time.Minute, ErrBadName},
		{"a", "x:1", 0, ErrBadTTL},
		{"a", "x:1", -time.Second, ErrBadTTL},
	}
	for _, c := range cases {
		if err := s.Register(c.name, c.addr, c.ttl); !errors.Is(err, c.want) {
			t.Errorf("Register(%q,%q,%v) = %v, want %v", c.name, c.addr, c.ttl, err, c.want)
		}
	}
}

func TestExpiry(t *testing.T) {
	now := time.Unix(1000, 0)
	s := Server{Clock: func() time.Time { return now }}
	s.Register("a", "x:1", 30*time.Second)
	s.Register("b", "y:1", 120*time.Second)
	now = now.Add(60 * time.Second)
	got := s.List()
	if len(got) != 1 || got[0].Name != "b" {
		t.Fatalf("after expiry list = %+v", got)
	}
	// Expired entries are garbage collected.
	now = now.Add(120 * time.Second)
	if got := s.List(); len(got) != 0 {
		t.Fatalf("all should have lapsed: %+v", got)
	}
}

func TestRefreshExtends(t *testing.T) {
	now := time.Unix(0, 0)
	s := Server{Clock: func() time.Time { return now }}
	s.Register("a", "x:1", 30*time.Second)
	now = now.Add(20 * time.Second)
	s.Register("a", "x:1", 30*time.Second) // heartbeat
	now = now.Add(20 * time.Second)
	if got := s.List(); len(got) != 1 {
		t.Fatalf("refreshed entry lapsed: %+v", got)
	}
}

func TestRemove(t *testing.T) {
	var s Server
	s.Register("a", "x:1", time.Minute)
	s.Remove("a")
	s.Remove("ghost") // idempotent
	if got := s.List(); len(got) != 0 {
		t.Fatalf("remove failed: %+v", got)
	}
}

func TestWireProtocol(t *testing.T) {
	var s Server
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	addr := l.Addr().String()

	if err := NewClient(addr).Register(context.Background(), "campus", "10.0.0.2:8081", time.Minute); err != nil {
		t.Fatal(err)
	}
	if err := NewClient(addr).Register(context.Background(), "isp", "10.0.0.3:8081", time.Minute); err != nil {
		t.Fatal(err)
	}
	got, err := NewClient(addr).List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("list = %+v", got)
	}
	if got[0].Name != "campus" || got[0].Addr != "10.0.0.2:8081" {
		t.Fatalf("entry = %+v", got[0])
	}
}

func TestWireRejectsBadRequests(t *testing.T) {
	var s Server
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if err := NewClient(l.Addr().String()).Register(context.Background(), "x y", "addr", time.Minute); err == nil {
		t.Fatal("space-containing name accepted over the wire")
	}
	// Zero TTL is rejected server-side.
	if err := NewClient(l.Addr().String()).Register(context.Background(), "x", "addr", 100*time.Millisecond); err != nil {
		// sub-second truncates to 0s -> rejected: that is correct.
		if !errors.Is(err, ErrRejected) {
			t.Fatalf("unexpected error %v", err)
		}
	} else {
		t.Fatal("sub-second TTL should be rejected (truncates to 0)")
	}
}

func TestConcurrentRegistration(t *testing.T) {
	var s Server
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 20)
	for i := 0; i < 20; i++ {
		wg.Add(1)
		name := string(rune('a' + i))
		go func() {
			defer wg.Done()
			errs <- NewClient(l.Addr().String()).Register(context.Background(), name, "h:1", time.Minute)
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if got, _ := NewClient(l.Addr().String()).List(context.Background()); len(got) != 20 {
		t.Fatalf("registered %d of 20", len(got))
	}
}

func TestHeartbeatKeepsAlive(t *testing.T) {
	var s Server
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	if _, err := NewClient(l.Addr().String()).StartHeartbeat(ctx, "hb", "h:1", 2*time.Second, nil); err != nil {
		t.Fatal(err)
	}
	// After > TTL with heartbeats every TTL/3, the entry must survive.
	time.Sleep(2500 * time.Millisecond)
	got, err := NewClient(l.Addr().String()).List(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Name != "hb" {
		t.Fatalf("heartbeat entry gone: %+v", got)
	}
}

func TestHeartbeatFailsFastOnDeadRegistry(t *testing.T) {
	ctx, stop := context.WithCancel(context.Background())
	defer stop()
	if _, err := NewClient("127.0.0.1:1").StartHeartbeat(ctx, "x", "h:1", time.Minute, nil); err == nil {
		t.Fatal("heartbeat to dead registry should fail immediately")
	}
}
