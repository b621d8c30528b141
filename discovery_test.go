package repro_test

import (
	"context"
	"errors"
	"maps"
	"testing"
	"time"

	"repro"
	"repro/internal/registry"
)

// The discovery facade end to end: a live registry server, relays
// registered through the exported client, and DiscoverRelays returning
// the candidate map a RealTransport wants — healthiest first, down
// entries excluded.
func TestDiscoverRelaysFacade(t *testing.T) {
	s := &registry.Server{}
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer l.Close()

	ctx := context.Background()
	c := repro.NewRegistryClient(l.Addr().String(),
		repro.WithRegistryTimeout(2*time.Second),
		repro.WithRegistryPooledConn())
	defer c.Close()

	for _, r := range []struct {
		name   string
		addr   string
		health float64
	}{
		{"warm", "10.0.0.1:8081", 0.9},
		{"cold", "10.0.0.2:8081", 0.2},
		{"mid", "10.0.0.3:8081", 0.5},
	} {
		if err := c.RegisterHealth(ctx, r.name, r.addr, time.Minute, r.health); err != nil {
			t.Fatalf("register %s: %v", r.name, err)
		}
	}

	relays, err := repro.DiscoverRelays(ctx, c, 2)
	if err != nil {
		t.Fatalf("discover: %v", err)
	}
	if len(relays) != 2 {
		t.Fatalf("got %d relays, want 2: %v", len(relays), relays)
	}
	if relays["warm"] != "10.0.0.1:8081" || relays["mid"] != "10.0.0.3:8081" {
		t.Fatalf("top-2 should be warm+mid, got %v", relays)
	}
}

// Relays named like the wire's own words are listed like any other: a
// listing line cannot be taken for a rejection (ERR), a header (EPOCH)
// or an acknowledgement (OK).
func TestDiscoverRelaysNamedLikeWireWords(t *testing.T) {
	s := &registry.Server{}
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer l.Close()

	ctx := context.Background()
	c := repro.NewRegistryClient(l.Addr().String(), repro.WithRegistryTimeout(2*time.Second))
	defer c.Close()
	want := map[string]string{"ERR": "10.9.9.9:1", "EPOCH": "10.9.9.9:2", "OK": "10.9.9.9:3"}
	for name, addr := range want {
		if err := c.RegisterHealth(ctx, name, addr, time.Minute, 0.99); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	for _, k := range []int{0, 3} {
		entries, err := c.ListRanked(ctx, k)
		if err != nil {
			t.Fatalf("ListRanked(%d): %v", k, err)
		}
		got := make(map[string]string, len(entries))
		for _, e := range entries {
			got[e.Name] = e.Addr
		}
		if !maps.Equal(got, want) {
			t.Fatalf("ListRanked(%d) = %v, want %v", k, got, want)
		}
		relays, err := repro.DiscoverRelays(ctx, c, k)
		if err != nil {
			t.Fatalf("DiscoverRelays(%d): %v", k, err)
		}
		if !maps.Equal(relays, want) {
			t.Fatalf("DiscoverRelays(%d) = %v, want %v", k, relays, want)
		}
	}
}

// The exported error values must survive the facade round trip so
// downstream callers can errors.Is without importing internals.
func TestRegistryFacadeErrors(t *testing.T) {
	c := repro.NewRegistryClient("127.0.0.1:1", repro.WithRegistryTimeout(200*time.Millisecond))
	defer c.Close()
	_, err := repro.DiscoverRelays(context.Background(), c, 0)
	if !errors.Is(err, repro.ErrRegistryUnavailable) {
		t.Fatalf("want ErrRegistryUnavailable, got %v", err)
	}
}

// The delta-synced mirror through the facade: refresh against a live
// server, rank locally.
func TestRegistryRankedSetFacade(t *testing.T) {
	s := &registry.Server{}
	l, err := s.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatalf("serve: %v", err)
	}
	defer l.Close()

	ctx := context.Background()
	c := repro.NewRegistryClient(l.Addr().String(), repro.WithRegistryTimeout(2*time.Second))
	defer c.Close()
	if err := c.RegisterHealth(ctx, "only", "10.0.0.9:8081", time.Minute, 0.7); err != nil {
		t.Fatalf("register: %v", err)
	}

	set := repro.NewRegistryRankedSet()
	if err := set.Refresh(ctx, c); err != nil {
		t.Fatalf("refresh: %v", err)
	}
	top := set.Top(1)
	if len(top) != 1 || top[0].Name != "only" {
		t.Fatalf("mirror top = %v", top)
	}
}
