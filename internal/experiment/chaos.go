package experiment

import (
	"bufio"
	"io"
	"net"
	"path/filepath"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/randx"
	"repro/internal/relay"
	"repro/internal/shaper"
	"repro/internal/simnet"
)

// The chaos campaign is the standing bug sweep: every fault class the
// chaos layer can inject — packet-level faults on the fluid simulator
// (loss, reorder, duplication, burst loss) and connection-level faults
// on live loopback TCP (partition, relay flap, slow-loris stall,
// mid-stream reset, corrupted range) — is driven against the stack, and
// for each class the campaign checks the properties the rest of the
// repo depends on: the health monitor converges to the right verdict
// within a window or two, the SLO tracker burns its error budget when
// and only when requests actually fail, no fault wedges a transfer past
// its deadline, and the relay cache never serves a corrupted span.

// ChaosParams configures the campaign.
type ChaosParams struct {
	// Seed drives the simulator-side fault chains (default 1).
	Seed uint64
	// ObjectSize is the live-transfer object size (default 96 KB).
	ObjectSize int64
	// Transfers is the minimum fetches per live fault phase (default 16).
	Transfers int
	// Deadline is the per-fetch client deadline on live classes
	// (default 2 s). No fetch may run past it.
	Deadline time.Duration
	// SimBytes is each simulated transfer's size (default 1 MB over an
	// 8 Mb/s link, ~1 s clean).
	SimBytes int64
	// SimTransfers is the number of simulated transfers per fault phase
	// (default 24).
	SimTransfers int
	// BundleDir, when set, persists each live class's anomaly debug
	// bundles under BundleDir/<class>/ — the chaos-smoke CI artifact.
	// Empty keeps bundles in memory only.
	BundleDir string
}

func (p ChaosParams) withDefaults() ChaosParams {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.ObjectSize == 0 {
		p.ObjectSize = 96 << 10
	}
	if p.Transfers == 0 {
		p.Transfers = 16
	}
	if p.Deadline == 0 {
		p.Deadline = 2 * time.Second
	}
	if p.SimBytes == 0 {
		p.SimBytes = 1 << 20
	}
	if p.SimTransfers == 0 {
		p.SimTransfers = 24
	}
	return p
}

// ChaosEntry is one fault class's scorecard.
type ChaosEntry struct {
	Class string `json:"class"`
	// Mode is "sim" (fluid simulator) or "live" (loopback TCP).
	Mode string `json:"mode"`
	// Transfers attempted during the fault phase; Failures among them
	// (errors, truncations, timeouts, or corruption caught by
	// verification).
	Transfers int `json:"transfers"`
	Failures  int `json:"failures"`
	// Verdict is the health state the monitor settled on under fault;
	// VerdictOK whether it is one the class is expected to produce.
	Verdict   string `json:"verdict"`
	VerdictOK bool   `json:"verdict_ok"`
	// Recovered reports the monitor returning to healthy after the
	// fault was lifted.
	Recovered bool `json:"recovered"`
	// BurnAlert reports the fast-window SLO availability burn exceeding
	// 1 (budget burning faster than the objective allows) during the
	// fault. Live classes only.
	BurnAlert bool `json:"burn_alert"`
	// MaxTransfer is the slowest transfer observed, in seconds (virtual
	// for sim classes, wall-clock for live ones).
	MaxTransfer float64 `json:"max_transfer_s"`
	// DeadlineExceeded counts transfers that ran past their deadline —
	// the "no fault class wedges a transfer" property; must be 0.
	DeadlineExceeded int `json:"deadline_exceeded"`
	// CorruptDeliveries counts fetches whose bytes failed verification
	// but were served from the relay cache as if clean; must be 0.
	CorruptDeliveries int `json:"corrupt_deliveries"`
	// Bundles is how many debug bundles the flight trigger engine
	// captured during the phase (live classes only): exactly 1 for a
	// hard-failing class — overlapping SLO-burn and health-down triggers
	// on the one faulted path must collapse under the rate limit — and 0
	// for a transport-clean one. BundleEvents and BundleTraces describe
	// the first bundle: the faulted path's wide events and stitched
	// traces it captured.
	Bundles      int `json:"bundles,omitempty"`
	BundleEvents int `json:"bundle_events,omitempty"`
	BundleTraces int `json:"bundle_traces,omitempty"`
}

// ChaosResult aggregates the campaign.
type ChaosResult struct {
	Seed    uint64       `json:"seed"`
	Entries []ChaosEntry `json:"entries"`
	// AllVerdictsOK / zero-totals are the campaign's pass line.
	AllVerdictsOK          bool `json:"all_verdicts_ok"`
	AllRecovered           bool `json:"all_recovered"`
	TotalDeadlineExceeded  int  `json:"total_deadline_exceeded"`
	TotalCorruptDeliveries int  `json:"total_corrupt_deliveries"`
}

// RunChaos drives every fault class and scores the stack's behavior.
func RunChaos(p ChaosParams) ChaosResult {
	p = p.withDefaults()
	res := ChaosResult{Seed: p.Seed, AllVerdictsOK: true, AllRecovered: true}

	sims := []struct {
		name string
		prof simnet.FaultProfile
	}{
		{"loss", simnet.FaultProfile{Loss: 0.5}},
		{"reorder", simnet.FaultProfile{Reorder: 0.9}},
		{"duplication", simnet.FaultProfile{Dup: 0.9}},
		{"burst-loss", simnet.FaultProfile{
			Burst: &simnet.GEParams{MeanGood: 1, MeanBad: 3, LossGood: 0.001, LossBad: 0.5},
		}},
	}
	for _, s := range sims {
		res.Entries = append(res.Entries, runSimChaos(s.name, s.prof, p))
	}

	lives := []struct {
		name   string
		expect []obs.HealthState
		drive  func(ln *shaper.Listener) (heal func())
		cache  bool
	}{
		{"partition", []obs.HealthState{obs.HealthDown},
			func(ln *shaper.Listener) func() {
				ln.Sever()
				return faults(shaper.Fault{Do: shaper.Refuse})(ln)
			}, false},
		{"flap", []obs.HealthState{obs.HealthDegraded, obs.HealthDown},
			func(ln *shaper.Listener) func() {
				return faults(flap(ln.Accepted()+1, 4*p.Transfers)...)(ln)
			}, false},
		{"slow-loris", []obs.HealthState{obs.HealthDown},
			faults(shaper.Fault{At: 4096, Do: shaper.Stall, Dur: 30 * time.Second}), false},
		{"mid-stream-reset", []obs.HealthState{obs.HealthDown},
			faults(shaper.Fault{At: 4096, Do: shaper.Reset}), false},
		// A corrupting path is invisible to the relay's transport health
		// (the bytes flow fine); the defense is verification, so the
		// expected verdict is healthy and the scorecard instead counts
		// corrupt deliveries out of the cache.
		{"corrupted-range", []obs.HealthState{obs.HealthHealthy},
			faults(shaper.Fault{At: 1024, Do: shaper.Corrupt, Len: 512}), true},
	}
	for _, l := range lives {
		res.Entries = append(res.Entries, runLiveChaos(l.name, p, l.expect, l.drive, l.cache))
	}

	for _, e := range res.Entries {
		res.AllVerdictsOK = res.AllVerdictsOK && e.VerdictOK
		res.AllRecovered = res.AllRecovered && e.Recovered
		res.TotalDeadlineExceeded += e.DeadlineExceeded
		res.TotalCorruptDeliveries += e.CorruptDeliveries
	}
	return res
}

// faults installs fs on the origin's listener; heal clears them.
func faults(fs ...shaper.Fault) func(ln *shaper.Listener) func() {
	return func(ln *shaper.Listener) func() {
		ln.SetFaults(fs...)
		return func() { ln.SetFaults() }
	}
}

// flap is the flapping path as a pattern over accept order: of the n
// connections from index first on, runs of two are refused and runs of
// two let through. The path heals and fails faster than a damped health
// monitor should chase, and every run sees the same sequence.
func flap(first, n int) []shaper.Fault {
	var fs []shaper.Fault
	for i := 0; i < n; i++ {
		if i/2%2 == 0 {
			fs = append(fs, shaper.Fault{Conn: first + i, Do: shaper.Refuse})
		}
	}
	return fs
}

// --- Simulator-side classes ------------------------------------------

// runSimChaos drives one packet-fault class on the fluid simulator:
// clean transfers to baseline the link and arm a deadline, faulted
// transfers folded into an event-time health monitor (aborted at the
// deadline, as the real transport would), then clean transfers until
// the monitor recovers.
func runSimChaos(class string, prof simnet.FaultProfile, p ChaosParams) ChaosEntry {
	eng := simnet.NewEngine()
	net := simnet.NewNetwork(eng)
	link := net.NewLink("wan", 8e6, 0.02, 0)
	mon := obs.NewHealthMonitor(obs.HealthConfig{Window: 20, Buckets: 5})
	pid := obs.PathID{Via: "wan"}
	e := ChaosEntry{Class: class, Mode: "sim"}

	// transfer runs one flow, aborting it at deadline (0 = none), and
	// returns its duration (capped at the deadline) and whether it hit.
	transfer := func(deadline float64) (dur float64, timedOut bool) {
		done := false
		fl := net.StartFlow(simnet.FlowSpec{
			Label: class, Links: []*simnet.Link{link}, Bytes: p.SimBytes,
			OnComplete: func(*simnet.Flow) { done = true },
		})
		if deadline > 0 {
			tm := eng.After(deadline, func() {
				if !done {
					timedOut = true
					net.Abort(fl)
				}
			})
			defer tm.Cancel()
		}
		eng.RunWhile(func() bool { return !done && !timedOut })
		return fl.Duration(), timedOut
	}

	// Baseline: the clean link's transfer time sets the deadline the
	// paper's penalty analysis would — comfortably above clean, well
	// below what a degraded link can meet.
	var base float64
	for i := 0; i < 4; i++ {
		d, _ := transfer(0)
		base = d
		mon.TransferFinished(obs.TransferEnd{Path: pid, Time: eng.Now(), Bytes: p.SimBytes, Duration: d, Class: obs.ClassOK})
	}
	deadline := 1.6 * base

	faults := link.InjectFaults(prof, 0.25, randx.New(p.Seed))
	for i := 0; i < p.SimTransfers; i++ {
		d, timedOut := transfer(deadline)
		if timedOut {
			d = deadline
			e.Failures++
			mon.TransferAborted(obs.Abort{Path: pid, Time: eng.Now(), Class: obs.ClassTimeout})
		} else {
			mon.TransferFinished(obs.TransferEnd{Path: pid, Time: eng.Now(), Bytes: p.SimBytes, Duration: d, Class: obs.ClassOK})
		}
		if d > e.MaxTransfer {
			e.MaxTransfer = d
		}
		if d > deadline+1e-9 {
			e.DeadlineExceeded++
		}
		e.Transfers++
	}
	state := mon.State(pid.Label())
	e.Verdict = state.String()
	e.VerdictOK = state == obs.HealthDegraded || state == obs.HealthDown
	faults.Stop()

	// Recovery: clean transfers until the verdict heals (bounded by a
	// few windows of virtual time).
	for i := 0; i < 60 && mon.State(pid.Label()) != obs.HealthHealthy; i++ {
		d, _ := transfer(0)
		mon.TransferFinished(obs.TransferEnd{Path: pid, Time: eng.Now(), Bytes: p.SimBytes, Duration: d, Class: obs.ClassOK})
	}
	e.Recovered = mon.State(pid.Label()) == obs.HealthHealthy
	return e
}

// --- Live classes -----------------------------------------------------

// liveFetch is one client fetch through the relay with a hard deadline:
// it reports the outcome, whether the bytes verified, whether the relay
// answered from its cache, and how long the fetch took.
type liveFetch struct {
	ok       bool
	verified bool
	cacheHit bool
	full     bool
	elapsed  time.Duration
}

func chaosFetch(relayAddr, originAddr, name string, size int64, deadline time.Duration) liveFetch {
	start := time.Now()
	f := liveFetch{}
	conn, err := net.Dial("tcp", relayAddr)
	if err != nil {
		f.elapsed = time.Since(start)
		return f
	}
	defer conn.Close()
	conn.SetDeadline(start.Add(deadline))
	req := httpx.NewGet("http://"+originAddr+"/"+name, originAddr)
	req.SetRange(0, size)
	if err := req.Write(conn); err != nil {
		f.elapsed = time.Since(start)
		return f
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil || (resp.Status != 200 && resp.Status != 206) {
		f.elapsed = time.Since(start)
		return f
	}
	f.cacheHit = resp.Header["x-cache"] == "hit"
	body, err := io.ReadAll(resp.Body)
	f.elapsed = time.Since(start)
	f.full = int64(len(body)) == size
	f.verified = relay.VerifyRange(name, 0, body)
	f.ok = err == nil && f.full && f.verified
	return f
}

// runLiveChaos drives one connection-fault class on loopback TCP: an
// origin whose listener runs the faults, and a relay in front of it with
// its own health monitor and SLO tracker as the instruments under test.
func runLiveChaos(class string, p ChaosParams, expect []obs.HealthState, drive func(ln *shaper.Listener) func(), withCache bool) ChaosEntry {
	e := ChaosEntry{Class: class, Mode: "live"}

	origin := relay.NewOriginServer()
	origin.Put("warm.bin", p.ObjectSize)
	origin.Put("chaos.bin", p.ObjectSize)
	ln, err := shaper.Listen("127.0.0.1:0")
	must(err == nil, "origin listen: %v", err)
	defer ln.Close()
	go origin.Serve(ln)
	originAddr := ln.Addr().String()

	// The flight recorder rides along as an instrument under test: the
	// relay records one wide event per forward, the tail span collector
	// keeps every trace at this scale (KeepProb 1), and the trigger
	// engine watches the monitor and SLO hooks. The engine variable is
	// assigned before the relay serves, so the nil-safe closures can
	// never race a live trigger.
	var engine *flight.Engine
	rec := flight.NewRecorder(flight.Config{Ring: 256})
	spans := obs.NewTailSpanCollector(obs.TailConfig{ByteBudget: 1 << 20, KeepProb: 1})

	clk := obs.WallClock()
	slo := obs.NewSLOTracker(obs.SLOConfig{
		FastWindow: 2, FastBuckets: 8, SlowWindow: 30, SlowBuckets: 15,
		OnFastBurn: func(path string, burn float64) { engine.FireBurn(path, burn) },
	})
	mon := obs.NewHealthMonitor(obs.HealthConfig{
		Clock: clk, Window: 2, Buckets: 4, SLO: slo,
		OnTransition: func(path string, tr obs.HealthTransition) { engine.FireHealth(path, tr) },
	})
	bundleDir := ""
	if p.BundleDir != "" {
		bundleDir = filepath.Join(p.BundleDir, class)
	}
	engine = flight.NewEngine(flight.TriggerConfig{
		Recorder: rec,
		Spans:    spans,
		Dir:      bundleDir,
	})
	opts := []relay.Option{
		relay.WithHealthMonitor(mon),
		relay.WithSpans(spans),
		relay.WithFlight(rec),
		relay.WithUpstreamStall(300 * time.Millisecond),
	}
	if withCache {
		opts = append(opts, relay.WithCache(4<<20), relay.WithVerifier(relay.VerifyRange))
	}
	r := relay.New(opts...)
	rl, err := r.ServeAddr("127.0.0.1:0")
	must(err == nil, "relay listen: %v", err)
	defer rl.Close()
	relayAddr := rl.Addr().String()

	state := func() obs.HealthState { return mon.State(originAddr) }
	isExpected := func(s obs.HealthState) bool {
		for _, want := range expect {
			if s == want {
				return true
			}
		}
		return false
	}

	// Baseline: clean traffic establishes the healthy verdict. The
	// corrupted-range class fetches a different object here than under
	// fault, so its cache fill happens during the fault phase.
	for i := 0; i < 6 || state() != obs.HealthHealthy; i++ {
		must(i < 100, "%s: baseline never reached healthy", class)
		f := chaosFetch(relayAddr, originAddr, "warm.bin", p.ObjectSize, p.Deadline)
		must(f.ok, "%s: clean baseline fetch failed", class)
		time.Sleep(40 * time.Millisecond)
	}

	heal := drive(ln)

	// Fault phase: keep fetching (each fetch folds an outcome, and only
	// folds advance the verdict machinery) until the monitor converges
	// on an expected state, bounded by a few windows of wall time.
	budget := time.Now().Add(8 * time.Second)
	var maxElapsed time.Duration
	for e.Transfers < p.Transfers || (!isExpected(state()) && time.Now().Before(budget)) {
		if e.Transfers >= 4*p.Transfers {
			break
		}
		f := chaosFetch(relayAddr, originAddr, "chaos.bin", p.ObjectSize, p.Deadline)
		e.Transfers++
		if !f.ok {
			e.Failures++
		}
		if f.full && !f.verified && f.cacheHit {
			e.CorruptDeliveries++
		}
		if f.elapsed > maxElapsed {
			maxElapsed = f.elapsed
		}
		if f.elapsed > p.Deadline+500*time.Millisecond {
			e.DeadlineExceeded++
		}
		if burn := slo.Snapshot(clk()).AvailabilityFast.BurnRate; burn > 1 {
			e.BurnAlert = true
		}
		time.Sleep(60 * time.Millisecond)
	}
	e.MaxTransfer = maxElapsed.Seconds()
	st := state()
	e.Verdict = st.String()
	e.VerdictOK = isExpected(st)

	// Heal and re-drive clean traffic until the verdict recovers. The
	// corrupted-range class keeps fetching the object whose cached span
	// was poisoned — those fetches must come back verified-clean.
	heal()
	budget = time.Now().Add(8 * time.Second)
	for state() != obs.HealthHealthy && time.Now().Before(budget) {
		chaosFetch(relayAddr, originAddr, "chaos.bin", p.ObjectSize, p.Deadline)
		time.Sleep(60 * time.Millisecond)
	}
	e.Recovered = state() == obs.HealthHealthy
	if e.Recovered {
		f := chaosFetch(relayAddr, originAddr, "chaos.bin", p.ObjectSize, p.Deadline)
		if f.full && !f.verified && f.cacheHit {
			e.CorruptDeliveries++
		}
		must(f.ok, "%s: healed fetch still failing", class)
	}

	// Close drains the engine's build queue, so every fired trigger has
	// become a bundle before the scorecard reads them.
	engine.Close()
	bundles := engine.Bundles()
	e.Bundles = len(bundles)
	if len(bundles) > 0 {
		first := bundles[len(bundles)-1] // oldest: the one the fault fired
		e.BundleEvents = first.Events
		e.BundleTraces = first.TraceCount
	}
	return e
}
