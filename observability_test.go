package repro_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"repro"
	"repro/internal/httpsim"
	"repro/internal/randx"
	"repro/internal/relay"
	"repro/internal/shaper"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// lifecycleLog is the tests' own typed observer: it keeps the probe
// starts and counts the selections it is shown.
type lifecycleLog struct {
	repro.BaseObserver
	mu          sync.Mutex
	probeStarts []repro.ProbeStartEvent
	selections  int
}

func (l *lifecycleLog) ProbeStarted(e repro.ProbeStartEvent) {
	l.mu.Lock()
	l.probeStarts = append(l.probeStarts, e)
	l.mu.Unlock()
}

func (l *lifecycleLog) PathSelected(repro.SelectionEvent) {
	l.mu.Lock()
	l.selections++
	l.mu.Unlock()
}

// TestClientSnapshotMatchesOutcomes is the acceptance check for the
// observability layer on a real loopback network: a Client with
// WithObserver runs several select-and-fetch operations, and the
// metrics snapshot's selection, cancellation, and per-relay
// utilization counts must exactly match what the returned Outcomes
// say happened.
func TestClientSnapshotMatchesOutcomes(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("large.bin", 600_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	relays := map[string]string{}
	for _, name := range []string{"campus", "isp"} {
		r := &relay.Relay{}
		rl, err := r.ServeAddr("127.0.0.1:0")
		if err != nil {
			t.Fatal(err)
		}
		defer rl.Close()
		relays[name] = rl.Addr().String()
	}

	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 2e6})
	d.SetProfile(relays["campus"], shaper.PathProfile{DownloadBps: 10e6})
	d.SetProfile(relays["isp"], shaper.PathProfile{DownloadBps: 4e6})

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  relays,
		Dial:    d.Dial,
		Verify:  true,
	}
	defer tr.Close()

	log := &lifecycleLog{}
	client := repro.New(tr,
		repro.WithProbeBytes(150_000),
		repro.WithObserver(log))
	tr.Observer = client.Observer()

	obj := repro.Object{Server: "origin", Name: "large.bin", Size: 600_000}
	cands := []string{"campus", "isp"}

	const runs = 3
	indirect, canceled := 0, 0
	selectedBy := map[string]int{}
	for i := 0; i < runs; i++ {
		out := client.SelectAndFetch(context.Background(), obj, cands)
		if out.Err != nil {
			t.Fatalf("run %d: %v", i, out.Err)
		}
		if out.SelectedIndirect() {
			indirect++
		}
		label := "direct"
		if !out.Selected.IsDirect() {
			label = out.Selected.Via
		}
		selectedBy[label]++
		for _, p := range out.Probes {
			if errors.Is(p.Err, repro.ErrCanceled) {
				canceled++
			}
		}
	}

	s := client.Snapshot()
	if s.Selections != runs || s.SelectionsIndirect != int64(indirect) {
		t.Fatalf("selections = %d (%d indirect), outcomes say %d (%d)",
			s.Selections, s.SelectionsIndirect, runs, indirect)
	}
	if s.ProbesStarted != runs*3 || s.ProbesFinished != runs*3 {
		t.Fatalf("probes = %d started / %d finished, want %d", s.ProbesStarted, s.ProbesFinished, runs*3)
	}
	if s.ProbesCanceled != int64(canceled) {
		t.Fatalf("probes canceled = %d, outcomes say %d", s.ProbesCanceled, canceled)
	}
	for _, label := range []string{"direct", "campus", "isp"} {
		ps, ok := s.Paths[label]
		if !ok || ps.Probed != runs {
			t.Fatalf("path %s probed %d times, want %d (%+v)", label, ps.Probed, runs, s.Paths)
		}
		if ps.Selected != int64(selectedBy[label]) {
			t.Fatalf("path %s selected %d times, outcomes say %d", label, ps.Selected, selectedBy[label])
		}
		if got, want := ps.Utilization, float64(selectedBy[label])/runs; got != want {
			t.Fatalf("path %s utilization = %v, want %v", label, got, want)
		}
	}
	// No retries happened, and the transport never aborted more
	// connections than the engine canceled probes.
	if s.Retries != 0 {
		t.Fatalf("unexpected retries: %d", s.Retries)
	}
	if s.Aborts > s.ProbesCanceled {
		t.Fatalf("aborts %d exceed canceled probes %d", s.Aborts, s.ProbesCanceled)
	}

	// The observer attached via WithObserver saw the same stream.
	if log.selections != runs {
		t.Fatalf("observer saw %d selections, want %d", log.selections, runs)
	}
}

// simOutcome builds the quickstart's deterministic simulated world and
// runs one select-and-fetch through it, optionally observed.
func simOutcome(o repro.Observer) repro.Outcome {
	scen := topo.NewScenario(topo.Params{Seed: 2007})
	client := scen.FindClient("Korea")
	server := scen.FindServer("eBay")
	inters := []*topo.Node{
		scen.FindIntermediate("Berkeley"),
		scen.FindIntermediate("Princeton"),
	}
	eng := simnet.NewEngine()
	net := simnet.NewNetwork(eng)
	inst := scen.Instantiate(net, randx.New(1), client, []*topo.Node{server}, inters)
	world := httpsim.NewWorld(inst, []*topo.Node{server}, inters)
	world.Put("eBay", "large.bin", 4_000_000)
	inst.Warmup(300)

	obj := repro.Object{Server: "eBay", Name: "large.bin", Size: 4_000_000}
	cfg := repro.Config{ProbeBytes: repro.DefaultProbeBytes, Observer: o}
	return repro.New(world, repro.WithConfig(cfg)).SelectAndFetch(context.Background(), obj, []string{"Berkeley", "Princeton"})
}

// TestSimulatorDeterministicUnderObservation asserts observation is
// passive: two identically seeded virtual-time runs — one unobserved,
// one with a Metrics collector and a typed observer attached — produce
// byte-identical outcomes.
func TestSimulatorDeterministicUnderObservation(t *testing.T) {
	bare := simOutcome(nil)
	m := repro.NewMetrics()
	log := &lifecycleLog{}
	observed := simOutcome(repro.MultiObserver(m, log))

	if got, want := fmt.Sprintf("%+v", observed), fmt.Sprintf("%+v", bare); got != want {
		t.Fatalf("observed run diverged from bare run:\n got %s\nwant %s", got, want)
	}
	if bare.Err != nil {
		t.Fatalf("sim run failed: %v", bare.Err)
	}
	// And the observation actually happened.
	if s := m.Snapshot(); s.Selections != 1 || s.ProbesStarted != 3 {
		t.Fatalf("metrics missed the run: %+v", s)
	}
	// Virtual-time stamps on the events are exact simulator times, not
	// wall-clock: the first probe starts at the post-warmup instant.
	if len(log.probeStarts) != 3 || log.selections != 1 || log.probeStarts[0].Time < 300 {
		t.Fatalf("observer saw %d selections and probe starts %+v, want 1 and 3 from t>=300s virtual",
			log.selections, log.probeStarts)
	}
}
