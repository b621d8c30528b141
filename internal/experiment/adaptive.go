package experiment

import (
	"context"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The adaptive experiment quantifies the paper's closing suggestion that
// indirect routing "can also be used to decrease throughput variability":
// it compares the one-shot probe-and-commit client of the paper against
// the adaptive Downloader (segment fetches with periodic re-races) on the
// same simulated paths.

// AdaptiveParams configures the comparison.
type AdaptiveParams struct {
	Seed     uint64
	Scenario topo.Params
	// Clients defaults to variable (regime-switching) clients, where
	// adaptation should matter most.
	Clients []string
	Rounds  int // per client; default 60
	// SegmentBytes and RefreshEvery parameterize the Downloader.
	SegmentBytes int64
	RefreshEvery int
	Config       Config
}

func (p AdaptiveParams) withDefaults() AdaptiveParams {
	if p.Scenario.Seed == 0 {
		p.Scenario.Seed = p.Seed
	}
	if p.Rounds == 0 {
		p.Rounds = 60
	}
	if p.SegmentBytes == 0 {
		p.SegmentBytes = 1_000_000
	}
	if p.RefreshEvery == 0 {
		p.RefreshEvery = 1
	}
	if p.Config.Period == 0 {
		p.Config.Period = 120
	}
	return p
}

// AdaptiveResult is the per-client comparison.
type AdaptiveResult struct {
	Client string

	// OneShot and Adaptive are the mean throughputs (bits/sec) of the
	// two clients over identical rounds (not identical noise, but the
	// same path processes).
	OneShot, Adaptive float64

	// OneShotCV and AdaptiveCV are the coefficients of variation of
	// per-round throughput — the paper's variability claim predicts the
	// adaptive client's should be lower.
	OneShotCV, AdaptiveCV float64

	// MeanSwitches is the average number of mid-transfer path switches
	// per adaptive round.
	MeanSwitches float64
}

// RunAdaptive executes the comparison. Both clients run in the same
// simulated world in alternating rounds, so they sample the same path
// processes.
func RunAdaptive(p AdaptiveParams) []AdaptiveResult {
	p = p.withDefaults()
	scen := topo.NewScenario(p.Scenario)
	if len(p.Clients) == 0 {
		for _, c := range scen.Clients {
			if scen.ClientNet(c).Variable {
				p.Clients = append(p.Clients, c.Name)
			}
			if len(p.Clients) == 4 {
				break
			}
		}
	}
	server := scen.FindServer("eBay")
	must(server != nil, "eBay server missing")

	var out []AdaptiveResult
	for _, name := range p.Clients {
		client := scen.FindClient(name)
		must(client != nil, "unknown client %q", name)
		out = append(out, runAdaptiveClient(p, scen, client, server))
	}
	return out
}

func runAdaptiveClient(p AdaptiveParams, scen *topo.Scenario, client, server *topo.Node) AdaptiveResult {
	cfg := p.Config.withDefaults()
	inter := staticIntermediate(scen, client)
	world, obj, _ := newWorld(scen, campaignSeed(p.Seed, label("adaptive", client.Name)), cfg,
		client, server, []*topo.Node{inter})
	defer world.Inst.Close()
	eng := world.Inst.Net.Engine()

	cands := []string{inter.Name}
	dl := &core.Downloader{
		Transport:    world,
		ProbeBytes:   cfg.ProbeBytes,
		SegmentBytes: p.SegmentBytes,
		RefreshEvery: p.RefreshEvery,
		Rule:         cfg.Rule,
	}

	var oneShot, adaptive []float64
	switches := 0
	for i := 0; i < p.Rounds; i++ {
		start := world.Now()

		// One-shot client (the paper's mechanism).
		o := core.SelectAndFetch(context.Background(), world, obj, cands,
			core.Config{ProbeBytes: cfg.ProbeBytes, Rule: cfg.Rule})
		if o.Err == nil {
			oneShot = append(oneShot, o.Throughput())
		}
		eng.RunUntil(world.Now() + 10)

		// Adaptive client on the same paths, shortly after.
		r, err := dl.Download(context.Background(), obj, cands)
		if err == nil {
			adaptive = append(adaptive, r.Throughput())
			switches += r.Switches
		}

		nextRound(world, start, cfg.Period)
	}

	res := AdaptiveResult{Client: client.Name}
	var a, b stats.Acc
	for _, v := range oneShot {
		a.Add(v)
	}
	for _, v := range adaptive {
		b.Add(v)
	}
	res.OneShot, res.Adaptive = a.Mean(), b.Mean()
	if a.Mean() > 0 {
		res.OneShotCV = a.Std() / a.Mean()
	}
	if b.Mean() > 0 {
		res.AdaptiveCV = b.Std() / b.Mean()
	}
	if len(adaptive) > 0 {
		res.MeanSwitches = float64(switches) / float64(len(adaptive))
	}
	return res
}
