package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"runtime"
	"time"

	"repro"
	"repro/internal/relay"
	"repro/internal/shaper"
	"repro/internal/stats"
)

// directProfile slows the client's direct path so that a relay wins every
// probe race. On equal loopback paths the winner is random (9-19 of 150
// operations went indirect in sizing runs) and goodput swung 308-391 MB/s;
// with the direct path slowed it held within 5%.
var directProfile = shaper.PathProfile{Latency: 20 * time.Millisecond, DownloadBps: 80e6}

// selectStack is the topology of both select workloads: one origin, two
// unshaped uncached relays, and a Client whose direct path is shaped.
type selectStack struct {
	origin    *relay.Origin
	listeners []net.Listener
	transport *repro.RealTransport
	client    *repro.Client
	obj       repro.Object

	clientDials dialCounter
	relayDials  dialCounter
}

var selectCandidates = []string{"r1", "r2"}

func newSelectStack(seed int64, size int64) (*selectStack, error) {
	s := &selectStack{origin: relay.NewOriginServer()}
	// The object's name seeds its content (relay.FillRange hashes it).
	s.obj = repro.Object{Server: "origin", Name: fmt.Sprintf("obj-%d.bin", seed), Size: size}
	s.origin.Put(s.obj.Name, size)
	ol, err := s.origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	s.listeners = append(s.listeners, ol)
	relays := map[string]string{}
	for _, name := range selectCandidates {
		rl, err := relay.New(relay.WithDialer(s.relayDials.wrap(net.Dial))).ServeAddr("127.0.0.1:0")
		if err != nil {
			s.close()
			return nil, err
		}
		s.listeners = append(s.listeners, rl)
		relays[name] = rl.Addr().String()
	}
	originAddr := ol.Addr().String()
	direct := shaper.NewDialer()
	direct.SetProfile(originAddr, directProfile)
	s.transport = &repro.RealTransport{
		Servers: map[string]string{s.obj.Server: originAddr},
		Relays:  relays,
		Dial:    s.clientDials.wrap(direct.Dial),
		Verify:  true,
	}
	s.client = repro.New(s.transport, repro.WithProbeBytes(repro.DefaultProbeBytes))
	return s, nil
}

func (s *selectStack) close() {
	if s.transport != nil {
		s.transport.Close()
	}
	for _, l := range s.listeners {
		l.Close()
	}
}

// selectAndFetch runs the paper's client operation once and applies the
// correctness gate: the whole object arrived verified, over a relay.
func (s *selectStack) selectAndFetch(ctx context.Context) (repro.Outcome, error) {
	out := s.client.SelectAndFetch(ctx, s.obj, selectCandidates)
	switch {
	case out.Err != nil:
		return out, out.Err
	case !out.SelectedIndirect():
		return out, fmt.Errorf("selected the slowed direct path")
	}
	var got int64
	for _, p := range out.Probes {
		if p.Err == nil && p.Path == out.Selected {
			got += p.Bytes
		}
	}
	if got += out.Remainder.Bytes; got != s.obj.Size {
		return out, fmt.Errorf("delivered %d of %d bytes", got, s.obj.Size)
	}
	return out, nil
}

// selectInstance is bulk_select or small_select: one client calling
// SelectAndFetch on one object in a closed loop.
type selectInstance struct {
	*selectStack

	ops            int
	indirect       int
	probeMs, remMs []float64
	goroutinesPeak int
	base           selectBase
}

// selectBase holds the public counters' values when the window began.
type selectBase struct {
	served int64
	pool   repro.RealPoolStats
	dials  int64
}

func (s *selectInstance) readBase() selectBase {
	return selectBase{
		served: s.origin.BytesServed.Load(),
		pool:   s.transport.PoolStats(),
		dials:  s.clientDials.dials.Load(),
	}
}

// selectSetup builds the select workload for one object size.
func selectSetup(size int64) func(runConfig) (instance, error) {
	return func(cfg runConfig) (instance, error) {
		stack, err := newSelectStack(cfg.seed, size)
		if err != nil {
			return nil, err
		}
		return &selectInstance{selectStack: stack}, nil
	}
}

func (s *selectInstance) op(ctx context.Context, tr *tracer) error {
	t0 := time.Now()
	out, err := s.selectAndFetch(ctx)
	end := time.Now()
	s.ops++
	if out.SelectedIndirect() {
		s.indirect++
	}
	// Outcome times are seconds on the transport's clock.
	s.probeMs = append(s.probeMs, (out.ProbeEnd-out.Start)*1000)
	s.remMs = append(s.remMs, (out.End-out.ProbeEnd)*1000)
	// Losing direct probes sleep out the shaped latency after their
	// cancellation; the high-water mark shows whether they pile up.
	s.goroutinesPeak = max(s.goroutinesPeak, runtime.NumGoroutine())
	if tr != nil {
		at := func(t float64) time.Time { return t0.Add(time.Duration((t - out.Start) * float64(time.Second))) }
		id := tr.newOp()
		tr.add(id, "op", "", t0, end)
		tr.add(id, "probe_phase", "op", t0, at(out.ProbeEnd))
		tr.add(id, "remainder", "op", at(out.ProbeEnd), at(out.End))
	}
	return err
}

func (s *selectInstance) begin() {
	s.ops, s.indirect, s.goroutinesPeak = 0, 0, 0
	s.probeMs, s.remMs = s.probeMs[:0], s.remMs[:0]
	s.base = s.readBase()
}

func (s *selectInstance) check() error {
	return errors.Join(s.clientDials.problem("client"), s.relayDials.problem("relay"))
}

func (s *selectInstance) counters() map[string]float64 {
	now := s.readBase()
	ops := float64(s.ops)
	reuses := float64(now.pool.Reuses - s.base.pool.Reuses)
	misses := float64(now.pool.Misses - s.base.pool.Misses)
	return map[string]float64{
		"core.probe_phase_ms_p50": stats.Median(s.probeMs),
		"core.remainder_ms_p50":   stats.Median(s.remMs),
		"core.indirect_share":     float64(s.indirect) / ops,
		// Object bytes delivered over origin bytes served: what the
		// losing probes wasted is the rest.
		"core.useful_byte_ratio":       ops * float64(s.obj.Size) / float64(now.served-s.base.served),
		"realnet.pool_reuse_ratio":     ratio(reuses, reuses+misses),
		"realnet.dials_per_op":         float64(now.dials-s.base.dials) / ops,
		"shaper.loser_goroutines_peak": float64(s.goroutinesPeak),
	}
}

// ratio is a/b, or 0 when nothing was counted.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
