package core

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/obs/flight"
)

func TestSelectAndFetchCtxCancelsLosers(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	tr.rate["slow"] = 0.5e6
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}

	out := SelectAndFetch(context.Background(), tr, obj, []string{"fast", "slow"},
		Config{ProbeBytes: 100_000})
	if out.Err != nil {
		t.Fatalf("outcome error despite delivered object: %v", out.Err)
	}
	if out.Selected.Via != "fast" {
		t.Fatalf("selected %v, want via fast", out.Selected)
	}

	// The two losing probes (direct, slow) must have had their contexts
	// canceled the moment the winner committed, and their results must
	// carry the typed cancellation error without polluting the outcome.
	canceled := 0
	for i, p := range out.Probes {
		if p.Path.Via == "fast" {
			if p.Err != nil {
				t.Fatalf("winning probe failed: %v", p.Err)
			}
			continue
		}
		if !errors.Is(p.Err, ErrCanceled) {
			t.Fatalf("loser probe %d err = %v, want ErrCanceled", i, p.Err)
		}
		canceled++
	}
	if canceled != 2 {
		t.Fatalf("%d losers canceled, want 2", canceled)
	}
	// The probe handles' contexts really were canceled (not just results
	// marked): index 0..2 are the probes in start order.
	for _, h := range tr.handles[:3] {
		if h.res.Path.Via == "fast" {
			continue
		}
		if h.ctx.Err() == nil {
			t.Fatalf("loser %v context not canceled", h.res.Path)
		}
	}
}

// TestSelectAndFetchSpans: with a tracing store attached the operation is one
// record — a "select" root with a "race" child that ends at the commit —
// and the transport is handed the race span's context on every probe and
// the root's on the remainder. A race nobody wins is where the operation
// died.
func TestSelectAndFetchSpans(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	obj := Object{Server: "s", Name: "o", Size: 1_000_000}
	spans := flight.NewRecorder(16, true)
	out := SelectAndFetch(context.Background(), tr, obj, []string{"fast"},
		Config{ProbeBytes: 100_000, Flight: spans})
	if out.Err != nil || out.Selected.Via != "fast" {
		t.Fatalf("outcome = %+v", out)
	}
	got := spans.Spans()
	if len(got) != 2 {
		t.Fatalf("engine recorded %d spans, want race + select: %+v", len(got), got)
	}
	race, root := got[0], got[1]
	if root.Service != "client" || root.Phase != "select" || !root.Parent.IsZero() || root.Class != "ok" ||
		root.Attrs["object"] != "o" || root.Attrs["server"] != "s" || root.Attrs["selected"] != "fast" {
		t.Fatalf("root span = %+v", root)
	}
	if race.Phase != "race" || race.Parent != root.ID || race.Trace != root.Trace || race.Class != "ok" ||
		race.Attrs["selected"] != "fast" || race.Attrs["rule"] != "first-finished" {
		t.Fatalf("race span = %+v under root %v", race, root.ID)
	}
	if len(tr.handles) != 3 {
		t.Fatalf("%d transfers started, want 2 probes + remainder", len(tr.handles))
	}
	for i, h := range tr.handles {
		want, what := race.ID, "probe"
		if i == 2 {
			want, what = root.ID, "remainder"
		}
		if sc, ok := obs.SpanFromContext(h.ctx); !ok || sc.Trace != root.Trace || sc.Span != want {
			t.Fatalf("%s %d started under %+v, want span %v of trace %v", what, i, sc, want, root.Trace)
		}
	}

	dead := flight.NewRecorder(16, true)
	out = SelectAndFetch(context.Background(), newFake(0), obj, nil, Config{Flight: dead})
	got = dead.Spans()
	if !errors.Is(out.Err, ErrAllPathsFailed) || len(got) != 2 ||
		got[0].Phase != "race" || got[0].Class != "failed" || got[0].Err == "" ||
		got[1].Phase != "select" || got[1].Class != "failed" {
		t.Fatalf("all-failed outcome %v recorded %+v, want a failed race under a failed select", out.Err, got)
	}
}

func TestSelectAndFetchCtxCanceledUpFront(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["r"] = 2e6
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out := SelectAndFetch(ctx, tr, Object{Server: "s", Name: "o", Size: 500_000},
		[]string{"r"}, Config{ProbeBytes: 100_000})
	if !errors.Is(out.Err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", out.Err)
	}
	if !errors.Is(out.Err, ErrAllPathsFailed) {
		t.Fatalf("err = %v, want ErrAllPathsFailed (nothing delivered)", out.Err)
	}
}

func TestSelectAndFetchCtxDeadline(t *testing.T) {
	tr := newFake(1e6)
	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	<-ctx.Done() // let the deadline expire
	out := SelectAndFetch(ctx, tr, Object{Server: "s", Name: "o", Size: 500_000},
		nil, Config{ProbeBytes: 100_000})
	if !errors.Is(out.Err, ErrProbeTimeout) {
		t.Fatalf("err = %v, want ErrProbeTimeout", out.Err)
	}
	if !errors.Is(out.Err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, should wrap context.DeadlineExceeded", out.Err)
	}
}

func TestProbeSequentialCtxStopsOnCancel(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["a"] = 1e6
	tr.rate["b"] = 1e6
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	tr.onWait = cancel // dies after the first probe completes

	m := obs.NewMetrics()
	c := Race(ctx, tr, Object{Server: "s", Name: "o", Size: 500_000},
		[]string{"a", "b"}, Config{ProbeBytes: 100_000, Rule: Sequential, Metrics: m})
	out := c.Fetch()
	probes := out.Probes
	if len(probes) != 3 {
		t.Fatalf("%d probe results, want 3 (one per path)", len(probes))
	}
	if probes[0].Err != nil {
		t.Fatalf("first probe failed: %v", probes[0].Err)
	}
	for i, p := range probes[1:] {
		if !errors.Is(p.Err, ErrCanceled) {
			t.Fatalf("probe %d after cancel: err = %v, want ErrCanceled", i+1, p.Err)
		}
	}
	// Only the first probe was actually issued, and neither the later
	// probes nor the remainder went out afterwards.
	if tr.starts != 1 {
		t.Fatalf("%d transfers started after cancellation, want 1", tr.starts)
	}
	if !errors.Is(out.Err, ErrCanceled) {
		t.Fatalf("outcome err = %v, want the context's", out.Err)
	}
	// The un-issued probes are no legs of the operation's record.
	if legs := c.record(nil).Legs; len(legs) != 1 || legs[0].Route != "direct" {
		t.Fatalf("record legs = %+v, want the direct probe alone", legs)
	}
	if s := m.Snapshot(); s.ProbesStarted != 1 || s.Paths["a"].Probed != 0 || s.Paths["b"].Probed != 0 {
		t.Fatalf("metrics probes started %d, paths %+v: want the direct probe alone", s.ProbesStarted, s.Paths)
	}
}

func TestDownloaderCtxCanceled(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["r"] = 2e6
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	d := &Downloader{Transport: tr, ProbeBytes: 100_000, SegmentBytes: 250_000}
	_, err := d.Download(ctx, Object{Server: "s", Name: "o", Size: 1_000_000}, []string{"r"})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestMultipathCtxCanceled(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["r"] = 2e6
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	mp := &MultipathDownloader{Transport: tr, ChunkBytes: 250_000}
	_, err := mp.Download(ctx, Object{Server: "s", Name: "o", Size: 1_000_000}, []string{"r"})
	if !errors.Is(err, ErrCanceled) {
		t.Fatalf("err = %v, want ErrCanceled", err)
	}
}

func TestCtxErrMapping(t *testing.T) {
	if err := CtxErr(context.Background()); err != nil {
		t.Fatalf("live context: %v", err)
	}
	c1, cancel1 := context.WithCancel(context.Background())
	cancel1()
	if err := CtxErr(c1); !errors.Is(err, ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled: %v", err)
	}
	c2, cancel2 := context.WithTimeout(context.Background(), time.Nanosecond)
	defer cancel2()
	<-c2.Done()
	if err := CtxErr(c2); !errors.Is(err, ErrProbeTimeout) || !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("deadline: %v", err)
	}
}

// errCtx is a context whose Err is whatever the test says: a context
// implementation other than the standard library's may report its own.
type errCtx struct {
	context.Context
	err error
}

func (c errCtx) Err() error { return c.err }

// TestCtxErrBuiltOnce pins the two shared translations: the same wrap
// chain and the same bytes as wrapping afresh, and no allocation on a
// dead context. Any other context error still gets wrapped.
func TestCtxErrBuiltOnce(t *testing.T) {
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	expired, cancel2 := context.WithDeadline(context.Background(), time.Unix(0, 0))
	defer cancel2()
	for _, c := range []struct {
		ctx          context.Context
		core, stdlib error
		msg          string
	}{
		{canceled, ErrCanceled, context.Canceled, "core: transfer canceled: context canceled"},
		{expired, ErrProbeTimeout, context.DeadlineExceeded, "core: transfer deadline exceeded: context deadline exceeded"},
	} {
		err := CtxErr(c.ctx)
		if !errors.Is(err, c.core) || !errors.Is(err, c.stdlib) {
			t.Errorf("%v: not both %v and %v", err, c.core, c.stdlib)
		}
		if err.Error() != c.msg {
			t.Errorf("message %q, want %q", err.Error(), c.msg)
		}
		if n := testing.AllocsPerRun(100, func() { CtxErr(c.ctx) }); n != 0 {
			t.Errorf("%v: %v allocs, want 0", err, n)
		}
	}

	own := fmt.Errorf("shutting down: %w", context.Canceled)
	err := CtxErr(errCtx{context.Background(), own})
	if !errors.Is(err, ErrCanceled) || !errors.Is(err, own) ||
		err.Error() != "core: transfer canceled: shutting down: context canceled" {
		t.Errorf("a context's own error: %v", err)
	}
	late := fmt.Errorf("budget: %w", context.DeadlineExceeded)
	if err := CtxErr(errCtx{context.Background(), late}); !errors.Is(err, ErrProbeTimeout) || !errors.Is(err, late) {
		t.Errorf("a wrapped deadline: %v", err)
	}
}

// neverTransport returns handles that only complete via cancellation —
// the misbehaving-transport case: without context support the engine
// would hang forever.
type neverTransport struct {
	fakeTransport
}

func (t *neverTransport) StartCtx(ctx context.Context, obj Object, path Path, off, n int64) Handle {
	h := t.fakeTransport.StartCtx(ctx, obj, path, off, n).(*fakeHandle)
	if !h.done {
		h.res.End = 1e18 // never reached except via ctx death
	}
	return h
}

func (t *neverTransport) Wait(hs ...Handle) {
	for _, h := range hs {
		ch := h.(*fakeHandle)
		if ch.done {
			continue
		}
		// Block (in wall time) until the transfer's context dies, as
		// realnet's watcher does, then surface the typed error.
		<-ch.ctx.Done()
		ch.res.Err, ch.res.End, ch.done = CtxErr(ch.ctx), t.now, true
	}
}

func TestProbeDeadlineOnStuckTransport(t *testing.T) {
	tr := &neverTransport{}
	tr.rate = map[string]float64{Direct: 1e6}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()

	done := make(chan []ProbeResult, 1)
	go func() {
		probes, _ := fetchAll(ctx, tr, Object{Server: "s", Name: "o", Size: 500_000}, probePaths(nil), 0, 100_000, false)
		done <- probes
	}()
	select {
	case probes := <-done:
		if !errors.Is(probes[0].Err, ErrProbeTimeout) {
			t.Fatalf("stuck probe err = %v, want ErrProbeTimeout", probes[0].Err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("probe hung despite context deadline")
	}
}
