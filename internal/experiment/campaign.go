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
// over it (an extension experiment puts its own process in that place,
// CampaignSpec.Select). Campaigns are independent (each owns a simulator
// instance), so the experiments fan them out across a worker pool.
package experiment

import (
	"context"
	"fmt"
	"runtime"
	"sync"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// Config holds the transfer-level parameters a campaign varies.
type Config struct {
	// ObjectBytes is the download size (the paper uses multi-megabyte
	// files, at least 2 MB). Default 4 MB.
	ObjectBytes int64
	// ProbeBytes is the initial range-request size x. Default 100 KB.
	ProbeBytes int64
	// Rule selects the probe winner. Default FirstFinished. Under
	// core.Sequential, the paper's Section 4 methodology, the selecting
	// process's throughput is also taken over the remainder transfer
	// only, leaving the probing overhead, which grows with the
	// candidate-set size, out of the improvement metric.
	Rule core.Rule
	// Period is the virtual time between transfer starts (the paper's
	// Section 3 schedule is one transfer every 6 minutes). Default 360 s.
	Period float64
}

// objectBytes is the default download size.
const objectBytes = 4_000_000

// sec3Period is the paper's Section 3 schedule, one transfer every 6
// minutes, and the default Config.Period.
const sec3Period = 360

// warmup is the virtual time the stochastic link drivers run before a
// campaign's first transfer (this repo's choice: long enough for link
// conditions to decorrelate from their means).
const warmup = 600

// setupRTTs is each transfer's connection-establishment cost in RTTs
// (this repo's choice: the TCP handshake plus the request).
const setupRTTs = 1.5

func (c Config) withDefaults() Config {
	if c.ObjectBytes == 0 {
		c.ObjectBytes = objectBytes
	}
	if c.ProbeBytes == 0 {
		c.ProbeBytes = core.DefaultProbeBytes
	}
	if c.Period == 0 {
		c.Period = sec3Period
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

	// Metrics is the collector the campaign's engine reports into; its
	// path tally is the campaign's utilization table. Passing the same
	// collector to a WeightedRandomPolicy closes the adaptation loop (the
	// paper's Section 6 proposal). When nil a fresh collector is created.
	Metrics *obs.Metrics

	// Select is the selecting process. It runs the process up to its
	// commit point and returns finish, which completes it; the control
	// download starts between the two. Nil means the paper's process,
	// core.Race under Config reporting into Metrics, whose commit point
	// is the end of its probe race. A process with no commit point does
	// all its work in finish, so its control starts at the round start.
	Select func(ctx context.Context, t core.Transport, obj core.Object, cands []string) (finish func() core.Outcome)
}

// CampaignResult bundles the per-transfer records with the collector the
// campaign's engine reported into.
type CampaignResult struct {
	Spec    CampaignSpec
	Records []Record
	Metrics *obs.Metrics
}

// objectName is the synthetic large file every server exposes.
const objectName = "large.bin"

// focusServer is the web server the per-pair, Section 4 and extension
// experiments download from: eBay, the paper's focus dataset.
const focusServer = "eBay"

// focus returns scen's focus server.
func focus(scen *topo.Scenario) *topo.Node {
	s := scen.FindServer(focusServer)
	must(s != nil, "%s server missing", focusServer)
	return s
}

// findClient returns scen's client called name.
func findClient(scen *topo.Scenario, name string) *topo.Node {
	c := scen.FindClient(name)
	must(c != nil, "unknown client %q", name)
	return c
}

// newWorld builds the simulated world every driver runs in: a fresh
// engine and network, the scenario instantiated for one client, server
// and intermediate set from the seeded RNG, a size-byte object on the
// server, and the stochastic link drivers warmed up. The caller closes
// world.Inst.
func newWorld(scen *topo.Scenario, seed uint64, size int64, client, server *topo.Node, inters []*topo.Node) (*httpsim.World, core.Object, *randx.RNG) {
	net := simnet.NewNetwork(simnet.NewEngine())
	rng := randx.New(seed)
	inst := scen.Instantiate(net, rng.Fork("instance"), client, []*topo.Node{server}, inters)
	world := httpsim.NewWorld(inst, []*topo.Node{server}, inters)
	world.SetupRTTs = setupRTTs
	world.Put(server.Name, objectName, size)
	inst.Warmup(warmup)
	return world, core.Object{Server: server.Name, Name: objectName, Size: size}, rng
}

// RunCampaign executes one campaign to completion and returns its records.
// It is deterministic in spec.Seed.
func RunCampaign(spec CampaignSpec) CampaignResult {
	cfg := spec.Config.withDefaults()
	world, obj, rng := newWorld(spec.Scenario, spec.Seed, cfg.ObjectBytes, spec.Client, spec.Server, spec.Inters)
	defer world.Inst.Close()
	polRng := rng.Fork("policy")
	m := spec.Metrics
	if m == nil {
		m = obs.NewMetrics()
	}
	full := make([]string, len(spec.Inters))
	for i, in := range spec.Inters {
		full[i] = in.Name
	}
	sel := spec.Select
	if sel == nil {
		// The paper's selecting process is the engine itself, reporting
		// into m.
		engine := core.Config{ProbeBytes: cfg.ProbeBytes, Rule: cfg.Rule, Metrics: m}
		sel = func(ctx context.Context, t core.Transport, obj core.Object, cands []string) func() core.Outcome {
			return core.Race(ctx, t, obj, cands, engine).Fetch
		}
	}

	res := CampaignResult{Spec: spec, Metrics: m}
	for i := 0; i < spec.Transfers; i++ {
		roundStart := world.Now()
		cands := spec.Policy.Candidates(full, polRng)

		// The control process downloads the whole object directly from
		// the instant the selecting process commits, beside the rest of
		// it: for the paper's process, the remainder on the probe winner,
		// while losing probes drain alongside, contending for bandwidth
		// as in the real deployment.
		finish := sel(context.Background(), world, obj, cands)
		ctrl := world.StartCtx(context.Background(), obj, core.Path{Via: core.Direct}, 0, obj.Size)
		out := finish()
		world.Wait(ctrl)

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
		if len(out.Probes) > 0 {
			rec.ProbeDirectTp = out.Probes[0].Throughput()
		}
		switch {
		case cfg.Rule != core.Sequential:
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

		// The next round starts one period after this one began, and at
		// least 5 s after this one ended.
		world.Inst.Net.Engine().RunUntil(max(roundStart+cfg.Period, world.Now()+5))
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
