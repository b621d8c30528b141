package main

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro"
	"repro/internal/registry"
	"repro/internal/stats"
)

const (
	// churnRelays is the preloaded table; the polls' full-table scan is
	// most of a round at any size. 100k entries made 244 MB resident and a
	// set-up of seconds. At 20k the round is short enough that garbage
	// collection (fed by the heartbeats' 4 KB each) touches a tenth of the
	// rounds, which put latency_p90_ms on the knee between undisturbed and
	// collecting rounds: it spread 20% between runs. At 40k a round takes
	// twice as long for the same garbage, a twentieth of them are touched,
	// and the 90th percentile is an undisturbed round.
	churnRelays     = 40000
	churnHeartbeats = 8
	churnChanges    = 2 // of the heartbeats, how many change the health
	churnTTL        = time.Hour
)

// churnInstance is registry_churn: one client heartbeating over the wire
// and keeping a RankedSet mirror fresh with delta polls.
type churnInstance struct {
	server   *registry.Server
	listener net.Listener
	client   *repro.RegistryClient
	mirror   *repro.RegistryRankedSet
	rng      *rand.Rand

	names, addrs []string
	// health is the harness's model of every relay's health, in
	// thousandths: three decimals survive the wire's %g formatting exactly.
	health []int

	heartbeatUs, churnMs, quietMs []float64
	baseFulls                     int64
}

// preloadRegistry fills a server in-process with n relays of seeded
// health and returns the model of what it holds.
func preloadRegistry(srv *registry.Server, rng *rand.Rand, n int) (names, addrs []string, health []int, err error) {
	for i := 0; i < n; i++ {
		names = append(names, fmt.Sprintf("relay-%05d", i))
		addrs = append(addrs, fmt.Sprintf("10.%d.%d.%d:8081", i>>16&255, i>>8&255, i&255))
		health = append(health, rng.Intn(1000))
		if err := srv.RegisterHealth(names[i], addrs[i], churnTTL, float64(health[i])/1000); err != nil {
			return nil, nil, nil, err
		}
	}
	return names, addrs, health, nil
}

func registryChurnSetup(cfg runConfig) (instance, error) {
	s := &churnInstance{
		server: &registry.Server{},
		mirror: repro.NewRegistryRankedSet(),
		rng:    rand.New(rand.NewSource(cfg.seed)),
	}
	var err error
	if s.names, s.addrs, s.health, err = preloadRegistry(s.server, s.rng, max(cfg.scaled(churnRelays), churnHeartbeats)); err != nil {
		return nil, err
	}
	if s.listener, err = s.server.ServeAddr("127.0.0.1:0"); err != nil {
		return nil, err
	}
	s.client = repro.NewRegistryClient(s.listener.Addr().String(), repro.WithRegistryPooledConn())
	// The first refresh is the full sync every mirror starts with.
	ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
	defer cancel()
	if err := s.mirror.Refresh(ctx, s.client); err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

func (s *churnInstance) close() {
	s.client.Close()
	s.listener.Close()
}

// op is one round: 8 heartbeats for 8 distinct relays in seeded order, 2
// of them with a new health value, then a poll that must deliver exactly
// those 2 changes and a poll that must deliver none.
func (s *churnInstance) op(ctx context.Context, tr *tracer) error {
	id := tr.newOp()
	t0 := time.Now()
	var picked [churnHeartbeats]int
	for i := range picked {
		for {
			picked[i] = s.rng.Intn(len(s.names))
			if !slices.Contains(picked[:i], picked[i]) {
				break
			}
		}
	}
	first := s.rng.Intn(churnHeartbeats)
	second := (first + 1 + s.rng.Intn(churnHeartbeats-1)) % churnHeartbeats
	for i, relay := range picked {
		if i == first || i == second {
			s.health[relay] = (s.health[relay] + 1 + s.rng.Intn(999)) % 1000
		}
		h0 := time.Now()
		if err := s.client.RegisterHealth(ctx, s.names[relay], s.addrs[relay], churnTTL, float64(s.health[relay])/1000); err != nil {
			return fmt.Errorf("heartbeat: %w", err)
		}
		h1 := time.Now()
		s.heartbeatUs = append(s.heartbeatUs, float64(h1.Sub(h0))/float64(time.Microsecond))
		tr.add(id, "heartbeat", "op", h0, h1)
	}
	before := s.mirror.Stats()
	p0 := time.Now()
	if err := s.mirror.Refresh(ctx, s.client); err != nil {
		return fmt.Errorf("churn poll: %w", err)
	}
	p1 := time.Now()
	mid := s.mirror.Stats()
	if err := s.mirror.Refresh(ctx, s.client); err != nil {
		return fmt.Errorf("quiet poll: %w", err)
	}
	p2 := time.Now()
	after := s.mirror.Stats()
	s.churnMs = append(s.churnMs, float64(p1.Sub(p0))/float64(time.Millisecond))
	s.quietMs = append(s.quietMs, float64(p2.Sub(p1))/float64(time.Millisecond))
	tr.add(id, "poll_churn", "op", p0, p1)
	tr.add(id, "poll_quiet", "op", p1, p2)
	tr.add(id, "op", "", t0, p2)
	if got := mid.Changes - before.Changes; got != churnChanges {
		return fmt.Errorf("churn poll delivered %d changes, want %d", got, churnChanges)
	}
	if got := after.Changes - mid.Changes; got != 0 {
		return fmt.Errorf("quiet poll delivered %d changes, want 0", got)
	}
	return nil
}

func (s *churnInstance) begin() {
	s.heartbeatUs, s.churnMs, s.quietMs = s.heartbeatUs[:0], s.churnMs[:0], s.quietMs[:0]
	s.baseFulls = s.server.FullDeltas.Load()
}

// check compares the whole mirror with the harness's model (the per-round
// gate in op counts changes; this one reads their values) and the
// mirror's epoch with the server's.
func (s *churnInstance) check() error {
	entries := s.mirror.All()
	if len(entries) != len(s.names) {
		return fmt.Errorf("mirror holds %d relays, want %d", len(entries), len(s.names))
	}
	for _, e := range entries {
		index, err := strconv.Atoi(strings.TrimPrefix(e.Name, "relay-"))
		if err != nil || index < 0 || index >= len(s.health) {
			return fmt.Errorf("mirror holds unknown relay %q", e.Name)
		}
		if want := float64(s.health[index]) / 1000; e.Health != want {
			return fmt.Errorf("registry view diverged: %s has health %v, sent %v", e.Name, e.Health, want)
		}
	}
	if got, want := s.mirror.Epoch(), s.server.Epoch(); got != want {
		return fmt.Errorf("mirror at epoch %d, server at %d", got, want)
	}
	return nil
}

func (s *churnInstance) counters() map[string]float64 {
	return map[string]float64{
		"registry.poll_quiet_p50_ms":    stats.Median(s.quietMs),
		"registry.poll_churn_p50_ms":    stats.Median(s.churnMs),
		"registry.heartbeat_p50_us":     stats.Median(s.heartbeatUs),
		"registry.full_delta_fallbacks": float64(s.server.FullDeltas.Load() - s.baseFulls),
	}
}
