package experiment

import (
	"context"
	"strconv"

	"repro/internal/core"
	"repro/internal/topo"
)

// The monitored-selection experiment compares the paper's in-band probing
// (pay a probe race on every transfer, always act on fresh information)
// against RON-style background monitoring (keep a path table refreshed out
// of band, act on possibly stale estimates with zero per-transfer probing
// overhead) — the design-space neighbor the paper's related-work section
// positions against.

// MonitoredParams configures the comparison.
type MonitoredParams struct {
	Seed     uint64
	Scenario topo.Params
	Clients  []string // default: one per category
	Rounds   int      // default 80
	// RefreshEvery is how many rounds pass between background refreshes
	// of the monitor's table (default 5; 1 = refresh before every
	// transfer).
	RefreshEvery int
	Candidates   int // candidate relays per client (default 3, best pairs)
	Config       Config
	Workers      int
}

func (p MonitoredParams) withDefaults() MonitoredParams {
	if p.Scenario.Seed == 0 {
		p.Scenario.Seed = p.Seed
	}
	if len(p.Clients) == 0 {
		p.Clients = []string{"India", "Sweden", "Canada"}
	}
	if p.Rounds == 0 {
		p.Rounds = 80
	}
	if p.RefreshEvery == 0 {
		p.RefreshEvery = 5
	}
	if p.Candidates == 0 {
		p.Candidates = 3
	}
	if p.Config.Period == 0 {
		p.Config.Period = 120
	}
	return p
}

// MonitoredResult aggregates one strategy's rounds per client.
type MonitoredResult struct {
	Client string

	// ProbingAvg and MonitoredAvg are mean improvements (percent) over
	// the control direct process.
	ProbingAvg, MonitoredAvg float64

	// ProbingPenalties and MonitoredPenalties are penalty fractions of
	// indirect-selected rounds.
	ProbingPenalties, MonitoredPenalties float64

	// MonitoredStaleness counts rounds where the monitored client chose
	// a path the probing client (with fresh information) would not have.
	Disagreements int
	Rounds        int
}

// RunMonitored executes the comparison: in each round both strategies run
// back-to-back on the same simulated paths next to their own direct
// control transfers.
func RunMonitored(p MonitoredParams) []MonitoredResult {
	p = p.withDefaults()
	scen := topo.NewScenario(p.Scenario)
	server := scen.FindServer("eBay")
	must(server != nil, "eBay server missing")

	var out []MonitoredResult
	for _, name := range p.Clients {
		client := scen.FindClient(name)
		must(client != nil, "unknown client %q", name)
		out = append(out, runMonitoredClient(p, scen, client, server))
	}
	return out
}

func runMonitoredClient(p MonitoredParams, scen *topo.Scenario, client, server *topo.Node) MonitoredResult {
	cfg := p.Config.withDefaults()
	// Candidate set: the client's best overlay pairs.
	inters := bestPairs(scen, client, p.Candidates)
	world, obj, _ := newWorld(scen, campaignSeed(p.Seed, label("monitored", client.Name, strconv.Itoa(p.RefreshEvery))), cfg,
		client, server, inters)
	defer world.Inst.Close()
	eng := world.Inst.Net.Engine()

	cands := make([]string, len(inters))
	for i, in := range inters {
		cands[i] = in.Name
	}
	mon := core.NewMonitor()

	res := MonitoredResult{Client: client.Name, Rounds: p.Rounds}
	var probImps, monImps []float64
	probPen, probInd, monPen, monInd := 0, 0, 0, 0

	for i := 0; i < p.Rounds; i++ {
		start := world.Now()

		// Background refresh (out of band, between transfers).
		if i%p.RefreshEvery == 0 {
			mon.Refresh(context.Background(), world, obj, cands, core.Config{ProbeBytes: cfg.ProbeBytes})
		}

		// Probing strategy with its own control.
		ctrl := world.Start(obj, core.Path{}, 0, obj.Size)
		probing := core.SelectAndFetch(context.Background(), world, obj, cands,
			core.Config{ProbeBytes: cfg.ProbeBytes, Rule: cfg.Rule})
		world.Wait(ctrl)
		if probing.Err == nil && ctrl.Result().Err == nil {
			imp := core.Improvement(probing.Throughput(), ctrl.Result().Throughput())
			probImps = append(probImps, imp)
			if probing.SelectedIndirect() {
				probInd++
				if imp < 0 {
					probPen++
				}
			}
		}
		eng.RunUntil(world.Now() + 10)

		// Monitored strategy with its own control.
		ctrl2 := world.Start(obj, core.Path{}, 0, obj.Size)
		monitored := core.SelectMonitored(context.Background(), world, obj, cands, mon, core.Config{})
		world.Wait(ctrl2)
		if monitored.Err == nil && ctrl2.Result().Err == nil {
			imp := core.Improvement(monitored.Throughput(), ctrl2.Result().Throughput())
			monImps = append(monImps, imp)
			if monitored.SelectedIndirect() {
				monInd++
				if imp < 0 {
					monPen++
				}
			}
		}
		if monitored.Selected != probing.Selected {
			res.Disagreements++
		}

		nextRound(world, start, cfg.Period)
	}

	res.ProbingAvg = mean(probImps)
	res.MonitoredAvg = mean(monImps)
	if probInd > 0 {
		res.ProbingPenalties = float64(probPen) / float64(probInd)
	}
	if monInd > 0 {
		res.MonitoredPenalties = float64(monPen) / float64(monInd)
	}
	return res
}

// bestPairs returns the client's top-n intermediates by pair mean.
func bestPairs(scen *topo.Scenario, client *topo.Node, n int) []*topo.Node {
	inters := append([]*topo.Node{}, scen.Intermediates...)
	for i := 1; i < len(inters); i++ {
		for j := i; j > 0 && scen.PairMean(client, inters[j]) > scen.PairMean(client, inters[j-1]); j-- {
			inters[j], inters[j-1] = inters[j-1], inters[j]
		}
	}
	if n > len(inters) {
		n = len(inters)
	}
	return inters[:n]
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}
