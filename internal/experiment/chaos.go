package experiment

import (
	"context"
	"path/filepath"
	"strconv"
	"sync/atomic"
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
// within a window or two (and its →down edge, the one anomaly trigger,
// captures one debug bundle), no fault wedges a transfer past its
// deadline, and the relay cache never serves a corrupted span.

// ChaosParams configures the campaign.
type ChaosParams struct {
	// Seed drives the simulator-side fault chains (default 1).
	Seed uint64
	// Transfers is the minimum fetches per live fault phase (default 16).
	Transfers int
	// SimTransfers is the number of simulated transfers per fault phase
	// (default 24).
	SimTransfers int
	// BundleDir, when set, persists each live class's anomaly debug
	// bundles under BundleDir/<class>/ — the chaos-smoke CI artifact.
	// Empty keeps bundles in memory only.
	BundleDir string
}

// chaosDeadline is the per-fetch client deadline on live classes. No
// fetch may run past it.
const chaosDeadline = 2 * time.Second

// chaosObjectSize is each live transfer's object size.
const chaosObjectSize = 96 << 10

// simBytes is each simulated transfer's size: 1 MB over an 8 Mb/s link,
// ~1 s clean.
const simBytes = 1 << 20

func (p ChaosParams) withDefaults() ChaosParams {
	if p.Seed == 0 {
		p.Seed = 1
	}
	if p.Transfers == 0 {
		p.Transfers = 16
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
	// hard-failing class — the faulted path's health-down edge, once
	// within the rate limit — and 0 for a transport-clean one.
	// BundleEvents and BundleTraces describe the first bundle: the
	// faulted path's wide events and stitched traces it captured.
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

	for _, l := range liveClasses(p) {
		res.Entries = append(res.Entries, runLiveChaos(l, p))
	}

	for _, e := range res.Entries {
		res.AllVerdictsOK = res.AllVerdictsOK && e.VerdictOK
		res.AllRecovered = res.AllRecovered && e.Recovered
		res.TotalDeadlineExceeded += e.DeadlineExceeded
		res.TotalCorruptDeliveries += e.CorruptDeliveries
	}
	return res
}

// liveClass is one connection-fault class: the verdicts it may produce,
// the fault its drive installs on the origin's listener (returning the
// heal), and whether the relay caches.
type liveClass struct {
	name   string
	expect []obs.HealthState
	drive  func(ln *shaper.Listener) (heal func())
	cache  bool
}

func liveClasses(p ChaosParams) []liveClass {
	return []liveClass{
		{"partition", []obs.HealthState{obs.HealthDown},
			func(ln *shaper.Listener) func() {
				ln.Sever()
				return faults(shaper.Fault{Do: shaper.Refuse})(ln)
			}, false},
		{"flap", []obs.HealthState{obs.HealthDegraded, obs.HealthDown},
			func(ln *shaper.Listener) func() {
				return faults(flap(ln.Accepted()+1, 4*p.Transfers)...)(ln)
			}, false},
		// The one class whose outcome rests on wall time: each fetch
		// stalls until the relay's 300 ms upstream-stall guard gives up,
		// well inside the client's deadline.
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
	const route = "wan"
	e := ChaosEntry{Class: class, Mode: "sim"}

	// transfer runs one flow, aborting it at deadline (0 = none), folds it
	// into the monitor as a one-leg operation on engine time, and returns
	// its duration and whether it hit the deadline.
	transfer := func(deadline float64) (dur float64, timedOut bool) {
		done := false
		fl := net.StartFlow(simnet.FlowSpec{
			Label: class, Links: []*simnet.Link{link}, Bytes: simBytes,
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
		leg := obs.Leg{Route: route, Start: fl.Start(), End: eng.Now(), Bytes: simBytes}
		if timedOut {
			leg.Class, leg.Aborted = obs.ClassTimeout, true
		}
		mon.Fold(&obs.Op{Legs: []obs.Leg{leg}})
		return fl.Duration(), timedOut
	}

	// Baseline: the clean link's transfer time sets the deadline the
	// paper's penalty analysis would — comfortably above clean, well
	// below what a degraded link can meet.
	var base float64
	for i := 0; i < 4; i++ {
		base, _ = transfer(0)
	}
	deadline := 1.6 * base

	faults := link.InjectFaults(prof, 0.25, randx.New(p.Seed))
	for i := 0; i < p.SimTransfers; i++ {
		d, timedOut := transfer(deadline)
		if timedOut {
			d = deadline
			e.Failures++
		}
		if d > e.MaxTransfer {
			e.MaxTransfer = d
		}
		if d > deadline+1e-9 {
			e.DeadlineExceeded++
		}
		e.Transfers++
	}
	state := verdict(mon, route)
	e.Verdict = state.String()
	e.VerdictOK = state == obs.HealthDegraded || state == obs.HealthDown
	faults.Stop()

	// Recovery: clean transfers until the verdict heals (bounded by a
	// few windows of virtual time).
	for i := 0; i < 60 && verdict(mon, route) != obs.HealthHealthy; i++ {
		transfer(0)
	}
	e.Recovered = verdict(mon, route) == obs.HealthHealthy
	return e
}

// verdict is the state the monitor's folds committed for key.
func verdict(mon *obs.HealthMonitor, key string) obs.HealthState {
	ph, _ := mon.PathHealth(key)
	return ph.State
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
	status, header, body, err := httpx.Get(context.Background(), nil, relayAddr,
		"http://"+originAddr+"/"+name, map[string]string{"range": "bytes=0-" + strconv.FormatInt(size-1, 10)}, deadline)
	f := liveFetch{elapsed: time.Since(start)}
	if err != nil || (status != 200 && status != 206) {
		return f
	}
	f.cacheHit = header["x-cache"] == "hit"
	f.full = int64(len(body)) == size
	f.verified = relay.VerifyRange(name, 0, body)
	f.ok = f.full && f.verified
	return f
}

// chaosStep is the seconds of health-monitor time one live fetch
// takes: on the monitor's 2 s window of 0.5 s buckets, the 1 s dwell is
// 20 fetches. healFetches bounds the heal phase at four windows.
const (
	chaosStep   = 0.05
	healFetches = 160
)

// runLiveChaos drives one connection-fault class on loopback TCP: an
// origin whose listener runs the faults, and a relay in front of it with
// its own health monitor as the instrument under test. The monitor runs
// on a logical clock that moves one chaosStep per fetch, after the fetch
// has folded and any bundle it fired is built, so every column but
// MaxTransfer is a function of the fault pattern alone.
func runLiveChaos(class liveClass, p ChaosParams) ChaosEntry {
	e := ChaosEntry{Class: class.name, Mode: "live"}

	origin := relay.NewOriginServer()
	origin.Put("warm.bin", chaosObjectSize)
	origin.Put("chaos.bin", chaosObjectSize)
	ln, err := shaper.Listen("127.0.0.1:0")
	must(err == nil, "origin listen: %v", err)
	defer ln.Close()
	go origin.Serve(ln)
	originAddr := ln.Addr().String()

	// The flight recorder rides along as an instrument under test: the
	// relay finishes one traced row per forward into the store (which
	// holds every row at this scale), and the trigger engine watches the
	// monitor's transitions. The engine variable is assigned before the
	// relay serves, so the nil-safe closure can never race a live trigger.
	var engine *flight.Engine
	rec := flight.NewRecorder(256, true)

	var ticks atomic.Int64
	mon := obs.NewHealthMonitor(obs.HealthConfig{
		Clock:  func() float64 { return chaosStep * float64(ticks.Load()) },
		Window: 2, Buckets: 4,
		OnTransition: func(path string, tr obs.HealthTransition) { engine.FireHealth(path, tr) },
	})
	bundleDir := ""
	if p.BundleDir != "" {
		bundleDir = filepath.Join(p.BundleDir, class.name)
	}
	engine = flight.NewEngine(flight.TriggerConfig{
		Recorder: rec,
		Dir:      bundleDir,
	})
	opts := []relay.Option{
		relay.WithHealthMonitor(mon),
		relay.WithFlight(rec),
		relay.WithUpstreamStall(300 * time.Millisecond),
	}
	if class.cache {
		opts = append(opts, relay.WithCache(4<<20), relay.WithVerifier(relay.VerifyRange))
	}
	r := relay.New(opts...)
	rl, err := r.ServeAddr("127.0.0.1:0")
	must(err == nil, "relay listen: %v", err)
	defer rl.Close()
	relayAddr := rl.Addr().String()

	// fetch runs one fetch and lets everything it set in motion land —
	// the relay's fold, then the bundle a →down edge fired — before the
	// clock moves on.
	fetch := func(name string) liveFetch {
		f := chaosFetch(relayAddr, originAddr, name, chaosObjectSize, chaosDeadline)
		r.WaitIdle()
		for s := engine.Stats(); s.Built < s.Fired; s = engine.Stats() {
			time.Sleep(time.Millisecond)
		}
		ticks.Add(1)
		return f
	}
	state := func() obs.HealthState { return verdict(mon, originAddr) }
	isExpected := func(s obs.HealthState) bool {
		for _, want := range class.expect {
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
		must(i < 100, "%s: baseline never reached healthy", class.name)
		must(fetch("warm.bin").ok, "%s: clean baseline fetch failed", class.name)
	}

	heal := class.drive(ln)

	// Fault phase: keep fetching (each fetch folds an outcome, and only
	// folds advance the verdict machinery) until the monitor converges
	// on an expected state, bounded by four times the minimum.
	var maxElapsed time.Duration
	for e.Transfers < p.Transfers || (!isExpected(state()) && e.Transfers < 4*p.Transfers) {
		f := fetch("chaos.bin")
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
		if f.elapsed > chaosDeadline+500*time.Millisecond {
			e.DeadlineExceeded++
		}
	}
	e.MaxTransfer = maxElapsed.Seconds()
	st := state()
	e.Verdict = st.String()
	e.VerdictOK = isExpected(st)

	// Heal and re-drive clean traffic until the verdict recovers. The
	// corrupted-range class keeps fetching the object whose cached span
	// was poisoned — those fetches must come back verified-clean.
	heal()
	for i := 0; i < healFetches && state() != obs.HealthHealthy; i++ {
		fetch("chaos.bin")
	}
	e.Recovered = state() == obs.HealthHealthy
	if e.Recovered {
		f := fetch("chaos.bin")
		if f.full && !f.verified && f.cacheHit {
			e.CorruptDeliveries++
		}
		must(f.ok, "%s: healed fetch still failing", class.name)
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
