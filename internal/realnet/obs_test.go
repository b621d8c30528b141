package realnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// TestRetryEventsMatchCounter asserts that every cold re-attempt is
// carried in the transfer's result — at a transport time inside the
// transfer — and that the engine's record of the probe hands each to the
// metrics collector and, through its link, the health monitor.
func TestRetryEventsMatchCounter(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 100_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	var dials atomic.Int64
	flaky := func(network, addr string) (net.Conn, error) {
		if dials.Add(1) <= 2 {
			return nil, fmt.Errorf("transient dial failure")
		}
		return net.Dial(network, addr)
	}
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Dial:    flaky,
	}
	m := obs.NewMetrics()
	m.Health = obs.NewHealthMonitor(obs.HealthConfig{})

	// The whole object is the probe: one leg, no remainder.
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 100_000}
	out := core.SelectAndFetch(context.Background(), tr, obj, nil, core.Config{ProbeBytes: 100_000, Metrics: m})
	if out.Err != nil {
		t.Fatalf("transfer failed despite retries: %v", out.Err)
	}

	p := out.Probes[0]
	if len(p.Retries) != 2 {
		t.Fatalf("result carries %d retries, want 2: %v", len(p.Retries), p.Retries)
	}
	prev := p.Start
	for i, at := range p.Retries {
		if at < prev || at > p.End {
			t.Fatalf("retry %d at %v, outside the transfer [%v, %v] or out of order", i, at, p.Start, p.End)
		}
		prev = at
	}
	if got := m.Snapshot().Retries; got != 2 {
		t.Fatalf("metrics retries = %d, want 2", got)
	}
	if ph, _ := m.Health.PathHealth("direct"); ph.Retries != 2 || ph.Ok != 1 {
		t.Fatalf("health = %+v, want 2 retries and 1 success", ph)
	}
}

// TestAbortEventMatchesCanceledCounter asserts a context-death teardown
// ends the transfer with the context's typed error, and that the engine
// records that leg as one abort of class canceled — already in the
// collector when the operation returns.
func TestAbortEventMatchesCanceledCounter(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 8_000_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 1e6})
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Dial:    d.Dial,
	}
	m := obs.NewMetrics()

	ctx, cancel := context.WithCancel(context.Background())
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 8_000_000}
	time.AfterFunc(50*time.Millisecond, cancel)
	out := core.Race(ctx, tr, obj, nil, core.Config{ProbeBytes: 8_000_000, Rule: core.MaxThroughput, Metrics: m}).Fetch()

	if err := out.Probes[0].Err; !errors.Is(err, core.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want ErrCanceled from the context", err)
	}
	s := m.Snapshot()
	if s.Aborts != 1 || s.ProbesFailed != 0 || s.Paths["direct"].Failed != 0 {
		t.Fatalf("aborts %d, probes failed %d, direct %+v: want one abort, no failure", s.Aborts, s.ProbesFailed, s.Paths["direct"])
	}
}

// TestFinishedTransferIsNotAborted asserts that a context canceled the
// instant Wait returns — what SelectAndFetch's deferred cancel does —
// finds the transfer already deregistered: the published result stays
// clean, with every byte streamed.
func TestFinishedTransferIsNotAborted(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("small.bin", 4096)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	tr := &Transport{Servers: map[string]string{"origin": ol.Addr().String()}}
	obj := core.Object{Server: "origin", Name: "small.bin", Size: 4096}
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		h := tr.StartWarmCtx(ctx, obj, core.Path{}, 0, 4096)
		tr.Wait(h)
		cancel()
		if r := h.Result(); r.Err != nil || r.Streamed != 4096 {
			t.Fatalf("fetch %d after cancel: err %v, streamed %d of 4096", i, r.Err, r.Streamed)
		}
	}
}

// TestStatusErrorClassifies asserts the transport's status-line error
// reports itself as ClassStatus through the core classifier, including
// when wrapped.
func TestStatusErrorClassifies(t *testing.T) {
	err := &StatusError{Status: 404, Reason: "not found"}
	if got := core.ErrClassOf(err); got != obs.ClassStatus {
		t.Fatalf("ErrClassOf(StatusError) = %v, want ClassStatus", got)
	}
	if got := core.ErrClassOf(fmt.Errorf("fetch: %w", err)); got != obs.ClassStatus {
		t.Fatalf("wrapped StatusError class = %v, want ClassStatus", got)
	}
}

// TestRealRaceEmitsUnifiedStream runs a selection race on a real
// loopback testbed with a Metrics collector on the engine alone and
// checks that its counters — the transport's aborts and streamed bytes
// among them, carried by the results — are coherent.
func TestRealRaceEmitsUnifiedStream(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	m := obs.NewMetrics()
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}

	out := core.SelectAndFetch(context.Background(), tr, obj,
		[]string{"fast", "slow"}, core.Config{ProbeBytes: 100_000, Metrics: m})
	if out.Err != nil {
		t.Fatalf("race failed: %v", out.Err)
	}

	s := m.Snapshot()
	if s.Selections != 1 || s.ProbesStarted != 3 || s.ProbesFinished != 3 {
		t.Fatalf("counters: %+v", s)
	}
	label := "direct"
	if !out.Selected.IsDirect() {
		label = out.Selected.Via
	}
	if s.Paths[label].Selected != 1 {
		t.Fatalf("winner %q not tallied: %+v", label, s.Paths)
	}
	// Each engine-canceled loser tears its connection down, so aborts
	// track engine cancels (a loser that squeaked in just before its
	// cancellation can make aborts fall short, never exceed).
	if s.Aborts > s.ProbesCanceled || s.Aborts == 0 {
		t.Fatalf("engine canceled %d probes but %d transfers ended aborted",
			s.ProbesCanceled, s.Aborts)
	}
	// Every delivered byte was streamed; the losers streamed some more.
	if s.BytesStreamed < s.BytesDelivered || s.BytesDelivered < obj.Size {
		t.Fatalf("streamed %d, delivered %d of %d", s.BytesStreamed, s.BytesDelivered, obj.Size)
	}
}
