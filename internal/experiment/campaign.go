// Package experiment reproduces the paper's evaluation: it drives
// measurement campaigns on the simulated PlanetLab topology and derives
// every table and figure of the paper (Figures 1–6, Tables I–III), plus
// ablations of the design choices.
//
// The unit of work is a campaign: one client node repeatedly downloading a
// large object from one web server, with two logical client processes as
// in the paper's methodology — a control process that always uses the
// direct path, and a selecting process that probes the direct and
// candidate indirect paths, picks the winner, and fetches the remainder
// over it. Campaigns are independent (each owns a simulator instance), so
// the drivers fan them out across a worker pool.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/randx"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// Config holds the transfer-level parameters shared by all experiments.
type Config struct {
	// ObjectBytes is the download size (the paper uses multi-megabyte
	// files, at least 2 MB). Default 4 MB.
	ObjectBytes int64
	// ProbeBytes is the initial range-request size x. Default 100 KB.
	ProbeBytes int64
	// Rule selects the probe winner. Default FirstFinished.
	Rule core.Rule
	// Period is the virtual time between transfer starts (the paper's
	// Section 3 schedule is one transfer every 6 minutes). Default 360 s.
	Period float64
	// Warmup is the virtual time the stochastic link drivers run before
	// the first transfer. Default 600 s.
	Warmup float64
	// SequentialProbes probes candidates one at a time (Section 4's
	// per-candidate "preliminary download tests") instead of racing them
	// concurrently. Implies max-throughput selection.
	SequentialProbes bool
	// ExcludeProbePhase computes the selecting process's throughput over
	// the remainder transfer only, leaving the probing overhead out of
	// the improvement metric (used by the Section 4 analyses, where the
	// probing phase grows with the candidate-set size).
	ExcludeProbePhase bool
	// SetupRTTs is the per-transfer connection-establishment cost in
	// RTTs (default 1.5: TCP handshake + request; < 0 disables).
	SetupRTTs float64
}

// DefaultConfig returns the paper-faithful transfer configuration.
func DefaultConfig() Config {
	return Config{
		ObjectBytes: 4_000_000,
		ProbeBytes:  core.DefaultProbeBytes,
		Rule:        core.FirstFinished,
		Period:      360,
		Warmup:      600,
	}
}

func (c Config) withDefaults() Config {
	d := DefaultConfig()
	if c.ObjectBytes == 0 {
		c.ObjectBytes = d.ObjectBytes
	}
	if c.ProbeBytes == 0 {
		c.ProbeBytes = d.ProbeBytes
	}
	if c.Period == 0 {
		c.Period = d.Period
	}
	if c.Warmup == 0 {
		c.Warmup = d.Warmup
	}
	switch {
	case c.SetupRTTs == 0:
		c.SetupRTTs = 1.5
	case c.SetupRTTs < 0:
		c.SetupRTTs = 0
	}
	return c
}

// Record is the measurement from one transfer round: the selecting
// process's outcome side by side with the concurrent control process.
type Record struct {
	Client   string
	Category topo.Category
	Server   string

	// Time is the virtual time at which the round's probing began.
	Time float64

	// Candidates is the intermediate set offered to the probe race.
	Candidates []string

	// Selected is the winning intermediate, or "" when the direct path
	// won.
	Selected string

	// DirectTp is the control process's throughput (bits/sec) over the
	// full object on the direct path.
	DirectTp float64

	// SelectedTp is the selecting process's overall throughput (bits/sec)
	// over the full object, probing overhead included.
	SelectedTp float64

	// ProbeDirectTp and ProbeBestTp are the probe-phase throughputs of
	// the direct path and of the winning path.
	ProbeDirectTp float64
	ProbeBestTp   float64

	// Improvement is the paper's metric in percent:
	// (SelectedTp − DirectTp) / DirectTp × 100.
	Improvement float64

	// Err records a failed round (excluded from statistics by drivers).
	Err error
}

// Indirect reports whether the round selected an indirect path.
func (r Record) Indirect() bool { return r.Selected != "" }

// CampaignSpec describes one measurement campaign.
type CampaignSpec struct {
	Scenario *topo.Scenario
	Client   *topo.Node
	Server   *topo.Node
	// Inters is the full intermediate set instantiated for the campaign;
	// Policy draws per-transfer candidate subsets from it.
	Inters    []*topo.Node
	Policy    core.Policy
	Transfers int
	Seed      uint64
	Config    Config

	// Tracker, when non-nil, receives the campaign's utilization
	// observations; passing the same tracker to a WeightedRandomPolicy
	// closes the adaptation loop (the paper's Section 6 proposal). When
	// nil a fresh tracker is created.
	Tracker *core.Tracker
}

// CampaignResult bundles the per-transfer records with the utilization
// tracker accumulated over the campaign.
type CampaignResult struct {
	Spec    CampaignSpec
	Records []Record
	Tracker *core.Tracker
}

// objectName is the synthetic large file every server exposes.
const objectName = "large.bin"

// newWorld builds the simulated world every driver runs in: a fresh
// engine and network, the scenario instantiated for one client, server
// and intermediate set from the seeded RNG, the study's object on the
// server, and the stochastic link drivers warmed up. cfg has its defaults
// applied. The caller closes world.Inst.
func newWorld(scen *topo.Scenario, seed uint64, cfg Config, client, server *topo.Node, inters []*topo.Node) (*httpsim.World, core.Object, *randx.RNG) {
	net := simnet.NewNetwork(simnet.NewEngine())
	rng := randx.New(seed)
	inst := scen.Instantiate(net, rng.Fork("instance"), client, []*topo.Node{server}, inters)
	world := httpsim.NewWorld(inst, []*topo.Node{server}, inters)
	world.SetupRTTs = cfg.SetupRTTs
	world.Put(server.Name, objectName, cfg.ObjectBytes)
	inst.Warmup(cfg.Warmup)
	return world, core.Object{Server: server.Name, Name: objectName, Size: cfg.ObjectBytes}, rng
}

// nextRound runs the world on to the transfer period after the one that
// began at start, and at least 5 s past now.
func nextRound(world *httpsim.World, start, period float64) {
	next := start + period
	if now := world.Now(); next < now+5 {
		next = now + 5
	}
	world.Inst.Net.Engine().RunUntil(next)
}

// RunCampaign executes one campaign to completion and returns its records.
// It is deterministic in spec.Seed.
func RunCampaign(spec CampaignSpec) CampaignResult {
	cfg := spec.Config.withDefaults()
	world, obj, rng := newWorld(spec.Scenario, spec.Seed, cfg, spec.Client, spec.Server, spec.Inters)
	defer world.Inst.Close()
	polRng := rng.Fork("policy")
	tracker := spec.Tracker
	if tracker == nil {
		tracker = core.NewTracker()
	}
	full := make([]string, len(spec.Inters))
	for i, in := range spec.Inters {
		full[i] = in.Name
	}
	// The selecting process is the engine itself.
	engine := core.Config{ProbeBytes: cfg.ProbeBytes, Rule: cfg.Rule, Sequential: cfg.SequentialProbes}

	res := CampaignResult{Spec: spec, Tracker: tracker}
	for i := 0; i < spec.Transfers; i++ {
		roundStart := world.Now()
		cands := spec.Policy.Candidates(full, polRng)

		// The control process downloads the whole object directly from
		// the instant the selecting process commits to a path, beside its
		// remainder; losing probes drain alongside, contending for
		// bandwidth as in the real deployment.
		race := core.Race(context.Background(), world, obj, cands, engine)
		ctrl := world.Start(obj, core.Path{Via: core.Direct}, 0, obj.Size)
		out := race.Fetch()
		world.Wait(ctrl)
		tracker.Observe(cands, out.Selected)

		rec := Record{
			Client:     spec.Client.Name,
			Category:   spec.Client.Category,
			Server:     spec.Server.Name,
			Time:       roundStart,
			Candidates: cands,
			Selected:   out.Selected.Via,
			Err:        out.Err,
		}
		ctrlRes := ctrl.Result()
		rec.DirectTp = ctrlRes.Throughput()
		rec.ProbeDirectTp = out.Probes[0].Throughput()
		switch {
		case !cfg.ExcludeProbePhase:
			rec.SelectedTp = out.Throughput()
		case out.Remainder.Bytes > 0:
			rec.SelectedTp = out.Remainder.Throughput()
		default:
			rec.SelectedTp = rec.DirectTp
		}
		for _, p := range out.Probes {
			if p.Path == out.Selected && p.Err == nil {
				rec.ProbeBestTp = p.Throughput()
			}
		}
		if ctrlRes.Err != nil {
			rec.Err = ctrlRes.Err
		}
		rec.Improvement = core.Improvement(rec.SelectedTp, rec.DirectTp)
		res.Records = append(res.Records, rec)

		nextRound(world, roundStart, cfg.Period)
	}
	return res
}

// RunAll executes campaigns across a worker pool and returns results in
// input order. workers <= 0 uses GOMAXPROCS.
func RunAll(specs []CampaignSpec, workers int) []CampaignResult {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) {
		workers = len(specs)
	}
	results := make([]CampaignResult, len(specs))
	if len(specs) == 0 {
		return results
	}
	var wg sync.WaitGroup
	idx := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				results[i] = RunCampaign(specs[i])
			}
		}()
	}
	for i := range specs {
		idx <- i
	}
	close(idx)
	wg.Wait()
	return results
}

// campaignSeed derives a stable per-campaign seed from the study seed and
// a label, so adding campaigns never changes existing ones.
func campaignSeed(studySeed uint64, label string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(label); i++ {
		h ^= uint64(label[i])
		h *= 1099511628211
	}
	return h ^ (studySeed * 0x9e3779b97f4a7c15)
}

// label builds the canonical campaign label.
func label(parts ...string) string {
	out := ""
	for i, p := range parts {
		if i > 0 {
			out += "|"
		}
		out += p
	}
	return out
}

// must panics with a formatted message; experiment drivers use it for
// impossible states.
func must(cond bool, format string, args ...any) {
	if !cond {
		panic("experiment: " + fmt.Sprintf(format, args...))
	}
}
