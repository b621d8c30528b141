package httpsim

import (
	"context"
	"errors"
	"testing"

	"repro/internal/core"
	"repro/internal/randx"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// buildWorld constructs a small world: one client, one server, two
// intermediates.
func buildWorld(t *testing.T, seed uint64) (*World, *topo.Scenario) {
	t.Helper()
	s := topo.NewScenario(topo.Params{Seed: seed})
	eng := simnet.NewEngine()
	net := simnet.NewNetwork(eng)
	client := s.Clients[0]
	servers := []*topo.Node{s.Servers[0]}
	inters := s.Intermediates[:2]
	inst := s.Instantiate(net, randx.New(seed), client, servers, inters)
	w := NewWorld(inst, servers, inters)
	w.Put(servers[0].Name, "big.bin", 4_000_000)
	return w, s
}

func TestDirectFetchCompletes(t *testing.T) {
	w, s := buildWorld(t, 1)
	obj := core.Object{Server: s.Servers[0].Name, Name: "big.bin", Size: 4_000_000}
	h := w.StartCtx(context.Background(), obj, core.Path{}, 0, 1_000_000)
	if h.Done() {
		t.Fatal("transfer done before any time passed")
	}
	w.Wait(h)
	res := h.Result()
	if res.Err != nil {
		t.Fatalf("fetch error: %v", res.Err)
	}
	if res.End <= res.Start {
		t.Fatal("no time elapsed during transfer")
	}
	if tp := res.Throughput(); tp <= 0 || tp > 100e6 {
		t.Fatalf("implausible throughput %v", tp)
	}
}

func TestIndirectFetchCompletes(t *testing.T) {
	w, s := buildWorld(t, 2)
	obj := core.Object{Server: s.Servers[0].Name, Name: "big.bin", Size: 4_000_000}
	h := w.StartCtx(context.Background(), obj, core.Path{Via: s.Intermediates[0].Name}, 0, 500_000)
	w.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatalf("indirect fetch error: %v", err)
	}
}

func TestConcurrentProbesIndependentTimes(t *testing.T) {
	w, s := buildWorld(t, 3)
	obj := core.Object{Server: s.Servers[0].Name, Name: "big.bin", Size: 4_000_000}
	d := w.StartCtx(context.Background(), obj, core.Path{}, 0, 100_000)
	i1 := w.StartCtx(context.Background(), obj, core.Path{Via: s.Intermediates[0].Name}, 0, 100_000)
	i2 := w.StartCtx(context.Background(), obj, core.Path{Via: s.Intermediates[1].Name}, 0, 100_000)
	w.Wait(d, i1, i2)
	ends := []float64{d.Result().End, i1.Result().End, i2.Result().End}
	for _, e := range ends {
		if e <= 0 {
			t.Fatalf("probe end %v", e)
		}
	}
	// The three paths have different bottlenecks; at least two distinct
	// finish times are expected.
	if ends[0] == ends[1] && ends[1] == ends[2] {
		t.Fatal("all probes finished at identical times; contention model suspect")
	}
}

func TestRangeValidation(t *testing.T) {
	w, s := buildWorld(t, 4)
	srv := s.Servers[0].Name
	cases := []struct {
		name    string
		obj     core.Object
		path    core.Path
		off, n  int64
		wantErr error
	}{
		{"bad server", core.Object{Server: "nope", Name: "big.bin"}, core.Path{}, 0, 10, ErrNoSuchServer},
		{"bad object", core.Object{Server: srv, Name: "nope"}, core.Path{}, 0, 10, ErrNoSuchObject},
		{"past end", core.Object{Server: srv, Name: "big.bin"}, core.Path{}, 3_999_999, 100, ErrBadRange},
		{"negative off", core.Object{Server: srv, Name: "big.bin"}, core.Path{}, -1, 10, ErrBadRange},
		{"negative len", core.Object{Server: srv, Name: "big.bin"}, core.Path{}, 0, -10, ErrBadRange},
		{"bad relay", core.Object{Server: srv, Name: "big.bin"}, core.Path{Via: "Atlantis"}, 0, 10, ErrNoSuchIntermediate},
	}
	for _, c := range cases {
		h := w.StartCtx(context.Background(), c.obj, c.path, c.off, c.n)
		if !h.Done() {
			t.Fatalf("%s: invalid request not immediately done", c.name)
		}
		if err := h.Result().Err; !errors.Is(err, c.wantErr) {
			t.Fatalf("%s: err = %v, want %v", c.name, err, c.wantErr)
		}
	}
}

func TestExactRangeToEndOK(t *testing.T) {
	w, s := buildWorld(t, 5)
	obj := core.Object{Server: s.Servers[0].Name, Name: "big.bin", Size: 4_000_000}
	h := w.StartCtx(context.Background(), obj, core.Path{}, 3_900_000, 100_000)
	w.Wait(h)
	if err := h.Result().Err; err != nil {
		t.Fatalf("tail range rejected: %v", err)
	}
}

func TestSelectAndFetchOnSimulatedWorld(t *testing.T) {
	w, s := buildWorld(t, 6)
	obj := core.Object{Server: s.Servers[0].Name, Name: "big.bin", Size: 4_000_000}
	cands := []string{s.Intermediates[0].Name, s.Intermediates[1].Name}
	out := core.SelectAndFetch(context.Background(), w, obj, cands, core.Config{})
	if out.Err != nil {
		t.Fatalf("select-and-fetch error: %v", out.Err)
	}
	if len(out.Probes) != 3 {
		t.Fatalf("probes = %d, want 3", len(out.Probes))
	}
	if out.Throughput() <= 0 {
		t.Fatal("non-positive overall throughput")
	}
	if out.End <= out.ProbeEnd || out.ProbeEnd <= out.Start {
		t.Fatalf("phase times inconsistent: start=%v probeEnd=%v end=%v",
			out.Start, out.ProbeEnd, out.End)
	}
}

func TestPutUnknownServerPanics(t *testing.T) {
	w, _ := buildWorld(t, 7)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Put("nope", "o", 1)
}

func TestNegativeObjectSizePanics(t *testing.T) {
	w, s := buildWorld(t, 8)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	w.Put(s.Servers[0].Name, "o", -1)
}

func TestServerAccessors(t *testing.T) {
	w, s := buildWorld(t, 9)
	srv := w.Server(s.Servers[0].Name)
	if srv == nil {
		t.Fatal("Server() returned nil")
	}
	if _, ok := srv.Size("big.bin"); !ok {
		t.Fatal("registered object missing")
	}
	if _, ok := srv.Size("ghost"); ok {
		t.Fatal("phantom object present")
	}
	if w.Server("nope") != nil {
		t.Fatal("unknown server should be nil")
	}
}

func TestVirtualTimeMonotone(t *testing.T) {
	w, s := buildWorld(t, 10)
	obj := core.Object{Server: s.Servers[0].Name, Name: "big.bin", Size: 4_000_000}
	t0 := w.Now()
	h := w.StartCtx(context.Background(), obj, core.Path{}, 0, 200_000)
	w.Wait(h)
	t1 := w.Now()
	if t1 <= t0 {
		t.Fatalf("time did not advance: %v -> %v", t0, t1)
	}
}

func TestSetupDelayChargesRTTs(t *testing.T) {
	w, s := buildWorld(t, 11)
	obj := core.Object{Server: s.Servers[0].Name, Name: "big.bin", Size: 4_000_000}
	// Measure a tiny transfer with and without setup cost; the setup
	// variant must take measurably longer.
	h := w.StartCtx(context.Background(), obj, core.Path{}, 0, 10_000)
	w.Wait(h)
	base := h.Result().Duration()

	w.SetupRTTs = 1.5
	h2 := w.StartCtx(context.Background(), obj, core.Path{}, 0, 10_000)
	w.Wait(h2)
	withSetup := h2.Result().Duration()
	if withSetup <= base {
		t.Fatalf("setup cost invisible: %v <= %v", withSetup, base)
	}
}

func TestDownloaderSwitchesInSimWorld(t *testing.T) {
	// End-to-end adaptive behavior over the simulated world: the direct
	// path starts fast and collapses mid-download; the Downloader must
	// switch to the relay and finish.
	s := topo.NewScenario(topo.Params{Seed: 31})
	eng := simnet.NewEngine()
	net := simnet.NewNetwork(eng)
	client := s.Clients[0]
	servers := []*topo.Node{s.Servers[0]}
	inters := s.Intermediates[:1]
	inst := s.Instantiate(net, randx.New(31), client, servers, inters)
	inst.Close() // detach stochastic drivers; this test steers capacities
	w := NewWorld(inst, servers, inters)
	w.Put(servers[0].Name, "big.bin", 12_000_000)

	direct := inst.DirectLink(servers[0])
	overlay := inst.OverlayLink(inters[0])
	// Start with the relay path so slow that the direct path certainly
	// wins the initial race regardless of RTT differences...
	direct.SetCapacity(8e6)
	overlay.SetCapacity(0.3e6)
	// ...then invert the situation shortly into the download.
	eng.After(4, func() {
		direct.SetCapacity(0.2e6)
		overlay.SetCapacity(4e6)
	})

	dl := &core.Downloader{
		Transport:    w,
		ProbeBytes:   100_000,
		SegmentBytes: 1_000_000,
		RefreshEvery: 1,
	}
	obj := core.Object{Server: servers[0].Name, Name: "big.bin", Size: 12_000_000}
	res, err := dl.Download(context.Background(), obj, []string{inters[0].Name})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPath().Via != inters[0].Name {
		t.Fatalf("final path %v, want via %s after direct collapse", res.FinalPath(), inters[0].Name)
	}
	if res.Switches == 0 {
		t.Fatal("no switch recorded")
	}
	var total int64
	for _, seg := range res.Segments {
		total += seg.Bytes
	}
	if total != obj.Size {
		t.Fatalf("segments cover %d of %d bytes", total, obj.Size)
	}
}
