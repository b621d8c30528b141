package experiment

import (
	"context"

	"repro/internal/core"
	"repro/internal/topo"
)

// The multipath experiment contrasts the paper's select-one-path design
// with mesh-style striping across paths (the Bullet direction from the
// related work): chunks of the object are pulled over the direct path and
// the candidate relays concurrently with work stealing. Striping can
// aggregate bandwidth — but all of a client's paths share its access
// link, so the gain collapses exactly where the paper's penalties live.

// MultipathParams configures the comparison.
type MultipathParams struct {
	Seed       uint64
	Scenario   topo.Params
	Clients    []string // default: one per category
	Rounds     int      // default 60
	Candidates int      // relays striped over (default 2, best pairs)
	ChunkBytes int64    // striping granularity (default 500 KB)
	Config     Config
	Workers    int
}

func (p MultipathParams) withDefaults() MultipathParams {
	if p.Scenario.Seed == 0 {
		p.Scenario.Seed = p.Seed
	}
	if len(p.Clients) == 0 {
		p.Clients = []string{"India", "Sweden", "Canada"}
	}
	if p.Rounds == 0 {
		p.Rounds = 60
	}
	if p.Candidates == 0 {
		p.Candidates = 2
	}
	if p.ChunkBytes == 0 {
		p.ChunkBytes = 500_000
	}
	if p.Config.Period == 0 {
		p.Config.Period = 120
	}
	return p
}

// MultipathResult compares the strategies for one client.
type MultipathResult struct {
	Client string

	// SelectAvg and StripeAvg are mean improvements (percent) over the
	// control direct transfer.
	SelectAvg, StripeAvg float64

	// StripeSpread is the mean fraction of bytes carried by non-direct
	// paths in the striped download.
	StripeSpread float64

	SharedBottleneck bool
	Rounds           int
}

// RunMultipath executes the comparison per client.
func RunMultipath(p MultipathParams) []MultipathResult {
	p = p.withDefaults()
	scen := topo.NewScenario(p.Scenario)
	server := scen.FindServer("eBay")
	must(server != nil, "eBay server missing")

	var out []MultipathResult
	for _, name := range p.Clients {
		client := scen.FindClient(name)
		must(client != nil, "unknown client %q", name)
		out = append(out, runMultipathClient(p, scen, client, server))
	}
	return out
}

func runMultipathClient(p MultipathParams, scen *topo.Scenario, client, server *topo.Node) MultipathResult {
	cfg := p.Config.withDefaults()
	inters := bestPairs(scen, client, p.Candidates)
	world, obj, _ := newWorld(scen, campaignSeed(p.Seed, label("multipath", client.Name)), cfg,
		client, server, inters)
	defer world.Inst.Close()
	eng := world.Inst.Net.Engine()

	cands := make([]string, len(inters))
	for i, in := range inters {
		cands[i] = in.Name
	}
	mp := &core.MultipathDownloader{Transport: world, ChunkBytes: p.ChunkBytes}

	res := MultipathResult{
		Client:           client.Name,
		Rounds:           p.Rounds,
		SharedBottleneck: scen.ClientNet(client).SharedBottleneck,
	}
	var selImps, strImps, spreads []float64

	for i := 0; i < p.Rounds; i++ {
		start := world.Now()

		// Single-path selection with its control.
		ctrl := world.Start(obj, core.Path{}, 0, obj.Size)
		sel := core.SelectAndFetch(context.Background(), world, obj, cands,
			core.Config{ProbeBytes: cfg.ProbeBytes, Rule: cfg.Rule})
		world.Wait(ctrl)
		if sel.Err == nil && ctrl.Result().Err == nil {
			selImps = append(selImps,
				core.Improvement(sel.Throughput(), ctrl.Result().Throughput()))
		}
		eng.RunUntil(world.Now() + 10)

		// Multipath striping with its control.
		ctrl2 := world.Start(obj, core.Path{}, 0, obj.Size)
		str, err := mp.Download(context.Background(), obj, cands)
		world.Wait(ctrl2)
		if err == nil && ctrl2.Result().Err == nil {
			strImps = append(strImps,
				core.Improvement(str.Throughput(), ctrl2.Result().Throughput()))
			var indirect, total int64
			for _, sh := range str.Shares {
				total += sh.Bytes
				if !sh.Path.IsDirect() {
					indirect += sh.Bytes
				}
			}
			if total > 0 {
				spreads = append(spreads, float64(indirect)/float64(total))
			}
		}

		nextRound(world, start, cfg.Period)
	}

	res.SelectAvg = mean(selImps)
	res.StripeAvg = mean(strImps)
	res.StripeSpread = mean(spreads)
	return res
}
