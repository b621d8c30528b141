package realnet

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// eventLog keeps the transport-level events the tests below read back.
type eventLog struct {
	obs.Base
	mu      sync.Mutex
	retries []obs.Retry
	aborts  []obs.Abort
}

func (l *eventLog) RetryScheduled(e obs.Retry) {
	l.mu.Lock()
	l.retries = append(l.retries, e)
	l.mu.Unlock()
}

func (l *eventLog) TransferAborted(e obs.Abort) {
	l.mu.Lock()
	l.aborts = append(l.aborts, e)
	l.mu.Unlock()
}

// seen returns what has been logged so far.
func (l *eventLog) seen() ([]obs.Retry, []obs.Abort) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]obs.Retry(nil), l.retries...), append([]obs.Abort(nil), l.aborts...)
}

// TestRetryEventsMatchCounter asserts that every cold re-attempt emits
// one RetryScheduled event — with the attempt number and a positive
// backoff — and that the metrics collector counts each.
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
	m := obs.NewMetrics()
	log := &eventLog{}
	tr := &Transport{
		Servers:      map[string]string{"origin": ol.Addr().String()},
		Dial:         flaky,
		MaxRetries:   2,
		RetryBackoff: time.Millisecond,
		Observer:     obs.Multi(m, log),
	}

	obj := core.Object{Server: "origin", Name: "big.bin", Size: 100_000}
	h := tr.Start(obj, core.Path{}, 0, 100_000)
	tr.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatalf("transfer failed despite retries: %v", err)
	}

	if got := m.Snapshot().Retries; got != 2 {
		t.Fatalf("retry events = %d, want 2", got)
	}
	retries, _ := log.seen()
	if len(retries) != 2 {
		t.Fatalf("observed %d retry events, want 2: %v", len(retries), retries)
	}
	for i, e := range retries {
		if e.Attempt != i+1 {
			t.Fatalf("retry %d attempt = %d, want %d", i, e.Attempt, i+1)
		}
		if e.Backoff <= 0 {
			t.Fatalf("retry %d has no backoff: %+v", i, e)
		}
		if e.Err == "" {
			t.Fatalf("retry %d carries no cause", i)
		}
		if e.Path.Server != "origin" || !e.Path.Direct() {
			t.Fatalf("retry %d path = %+v", i, e.Path)
		}
	}
}

// TestAbortEventMatchesCanceledCounter asserts a context-death teardown
// emits exactly one TransferAborted (class canceled), already counted
// when Wait returns.
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
	m := obs.NewMetrics()
	log := &eventLog{}
	tr := &Transport{
		Servers:  map[string]string{"origin": ol.Addr().String()},
		Dial:     d.Dial,
		Observer: obs.Multi(m, log),
	}

	ctx, cancel := context.WithCancel(context.Background())
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 8_000_000}
	h := tr.StartCtx(ctx, obj, core.Path{}, 0, 8_000_000)
	time.AfterFunc(50*time.Millisecond, cancel)
	tr.Wait(h)

	if !errors.Is(h.Result().Err, core.ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", h.Result().Err)
	}
	if got := m.Snapshot().Aborts; got != 1 {
		t.Fatalf("abort events = %d, want 1", got)
	}
	if _, aborts := log.seen(); len(aborts) != 1 || aborts[0].Class != obs.ClassCanceled {
		t.Fatalf("observed aborts = %+v, want one of class canceled", aborts)
	}
}

// TestFinishedTransferIsNotAborted asserts that a context canceled the
// instant Wait returns — what SelectAndFetch's deferred cancel does —
// finds the transfer already deregistered: a clean transfer emits no
// TransferAborted.
func TestFinishedTransferIsNotAborted(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("small.bin", 4096)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	m := obs.NewMetrics()
	tr := &Transport{
		Servers:  map[string]string{"origin": ol.Addr().String()},
		Observer: m,
	}
	obj := core.Object{Server: "origin", Name: "small.bin", Size: 4096}
	for i := 0; i < 200; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		h := tr.StartWarmCtx(ctx, obj, core.Path{}, 0, 4096)
		tr.Wait(h)
		cancel()
		if err := h.Result().Err; err != nil {
			t.Fatalf("fetch %d: %v", i, err)
		}
	}
	if got := m.Snapshot().Aborts; got != 0 {
		t.Fatalf("%d of 200 finished transfers were counted as aborted", got)
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

// TestRealRaceEmitsUnifiedStream wires one Metrics collector into BOTH
// the engine config and the transport, runs a selection race on a real
// loopback testbed, and checks the unified counters are coherent.
func TestRealRaceEmitsUnifiedStream(t *testing.T) {
	tr, cleanup := testbed(t)
	defer cleanup()
	m := obs.NewMetrics()
	tr.Observer = m
	obj := core.Object{Server: "origin", Name: "big.bin", Size: 2_000_000}

	out := core.SelectAndFetch(context.Background(), tr, obj,
		[]string{"fast", "slow"}, core.Config{ProbeBytes: 100_000, Observer: m})
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
	// Each engine-canceled loser tears its connection down, so transport
	// aborts track engine cancels (a loser that squeaked in just before
	// its cancellation can make aborts fall short, never exceed).
	if s.Aborts > s.ProbesCanceled || s.Aborts == 0 {
		t.Fatalf("engine canceled %d probes but transport aborted %d transfers",
			s.ProbesCanceled, s.Aborts)
	}
}
