package repro_test

import (
	"context"
	"errors"
	"testing"
	"time"

	"repro"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// TestChaosClientRoutesAroundFaultyRelay is the end-to-end chaos check
// on the full client stack: a relay path that resets every transfer
// mid-stream must lose the probe race round after round, fold as a
// transport failure (never a hang, never a spurious success) until the
// health monitor marks it down — and once the fault lifts, clean rounds
// must walk it back to healthy. Throughout, every operation completes
// promptly over the direct path: chaos on one candidate never wedges
// the client.
func TestChaosClientRoutesAroundFaultyRelay(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 96_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	// The faults sit on the client->relay leg: every connection the relay
	// accepts is reset 2 KB into its response stream, mid-probe.
	rl, err := shaper.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	rl.SetFaults(shaper.Fault{At: 2048, Do: shaper.Reset})
	go (&relay.Relay{}).Serve(rl)

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r": rl.Addr().String()},
		Verify:  true,
	}
	defer tr.Close()

	hm := repro.NewHealthMonitor(repro.HealthConfig{Window: 3, Buckets: 12})
	client := repro.New(tr,
		repro.WithProbeBytes(32_000),
		repro.WithRule(repro.MaxThroughput),
		repro.WithTimeout(3*time.Second),
		repro.WithHealthMonitor(hm))

	state := func(path string) repro.HealthState {
		ph, _ := hm.PathHealth(path)
		return ph.State
	}
	obj := repro.Object{Server: "origin", Name: "big.bin", Size: 96_000}
	round := func() time.Duration {
		start := time.Now()
		out := client.SelectAndFetch(context.Background(), obj, []string{"r"})
		elapsed := time.Since(start)
		// The object itself must always arrive: the reset relay loses
		// the race, the direct path delivers.
		if out.Remainder.Err != nil {
			t.Fatalf("fetch failed despite a healthy direct path: %v", out.Remainder.Err)
		}
		if elapsed > 3500*time.Millisecond {
			t.Fatalf("round took %v: a mid-stream reset wedged the operation", elapsed)
		}
		return elapsed
	}

	// Fault phase: keep operating until the monitor walks the chaotic
	// relay out of service.
	deadline := time.Now().Add(15 * time.Second)
	for state("r") != repro.HealthDown {
		if time.Now().After(deadline) {
			ph, _ := hm.PathHealth("r")
			t.Fatalf("relay path never went down under resets: %+v", ph)
		}
		round()
	}
	ph, ok := hm.PathHealth("r")
	if !ok {
		t.Fatal("no health entry for the relay path")
	}
	if ph.Ok != 0 {
		t.Fatalf("mid-stream resets folded %d OK samples on the relay path", ph.Ok)
	}
	if st := state("direct"); st != repro.HealthHealthy {
		t.Fatalf("direct path state = %v while carrying every fetch", st)
	}

	// Heal: the relay's connections run clean again; continued operation
	// must recover the verdict within a few windows.
	rl.SetFaults()
	deadline = time.Now().Add(15 * time.Second)
	for state("r") != repro.HealthHealthy {
		if time.Now().After(deadline) {
			ph, _ := hm.PathHealth("r")
			t.Fatalf("relay path never recovered after heal: %+v", ph)
		}
		round()
	}
}

// TestDeadlineDeathFoldsOnce: a probe that dies at the operation's
// deadline on a stalled relay is one transfer, so it is one health
// sample and one abort — not a transport abort and an engine timeout
// folded twice. And with the deadline gone, no remainder goes out on the
// winner to time out there: the direct path, which carried every probe
// it was asked to, folds no failure.
func TestDeadlineDeathFoldsOnce(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("big.bin", 96_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	// Every relayed stream stalls 2 KB in: the relay's probe never
	// finishes, and the MaxThroughput rule waits it out to the deadline.
	rl, err := shaper.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	rl.SetFaults(shaper.Fault{At: 2048, Do: shaper.Blackhole})
	go (&relay.Relay{}).Serve(rl)

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r": rl.Addr().String()},
		Verify:  true,
	}
	defer tr.Close()
	hm := repro.NewHealthMonitor(repro.HealthConfig{})
	client := repro.New(tr,
		repro.WithProbeBytes(32_000),
		repro.WithRule(repro.MaxThroughput),
		repro.WithTimeout(300*time.Millisecond),
		repro.WithHealthMonitor(hm))

	obj := repro.Object{Server: "origin", Name: "big.bin", Size: 96_000}
	const ops = 5
	for i := 0; i < ops; i++ {
		out := client.SelectAndFetch(context.Background(), obj, []string{"r"})
		if !errors.Is(out.Err, repro.ErrProbeTimeout) {
			t.Fatalf("op %d: err = %v, want the deadline", i, out.Err)
		}
	}

	r, _ := hm.PathHealth("r")
	if r.Failed != ops {
		t.Fatalf("relay health folded %d failures over %d deadline deaths: %+v", r.Failed, ops, r)
	}
	if got := client.Snapshot().Aborts; got != ops {
		t.Fatalf("aborts = %d, want %d", got, ops)
	}
	d, _ := hm.PathHealth("direct")
	if d.Failed != 0 || d.Ok < 1 {
		t.Fatalf("direct health = %+v, want its probes ok and no failure", d)
	}
}
