package experiment

import (
	"context"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The adaptive experiment quantifies the paper's closing suggestion that
// indirect routing "can also be used to decrease throughput variability":
// it pairs the one-shot probe-and-commit client of the paper with the
// adaptive Downloader (1 MB segments, a re-race after every segment) on
// each client's static intermediate.

// AdaptiveParams configures the comparison.
type AdaptiveParams struct {
	Seed uint64
	// Clients defaults to the first four variable (regime-switching)
	// clients, where adaptation should matter most.
	Clients []string
	Rounds  int // per client; default 60
	Workers int // parallel campaigns (0 = GOMAXPROCS)
}

// AdaptiveResult is the per-client comparison.
type AdaptiveResult struct {
	Client string

	// OneShot and Adaptive are the mean throughputs (bits/sec) of the
	// two clients over the same rounds, each beside its own control.
	OneShot, Adaptive float64

	// OneShotCV and AdaptiveCV are the coefficients of variation of
	// per-round throughput — the paper's variability claim predicts the
	// adaptive client's should be lower.
	OneShotCV, AdaptiveCV float64

	// MeanSwitches is the average number of mid-transfer path switches
	// per adaptive round.
	MeanSwitches float64
}

// RunAdaptive executes the comparison, one campaign pair per client.
func RunAdaptive(p AdaptiveParams) []AdaptiveResult {
	if p.Rounds == 0 {
		p.Rounds = 60
	}
	scen := topo.NewScenario(topo.Params{Seed: p.Seed})
	clients := p.Clients
	if len(clients) == 0 {
		for _, c := range scen.Clients {
			if scen.ClientNet(c).Variable {
				clients = append(clients, c.Name)
			}
			if len(clients) == 4 {
				break
			}
		}
	}

	// switches[i] holds client i's adaptive switches, one per round.
	switches := make([][]int, len(clients))
	var specs []CampaignSpec
	for i, name := range clients {
		client := scen.FindClient(name)
		must(client != nil, "unknown client %q", name)
		sw := &switches[i]
		specs = append(specs, pairedSpecs(scen, client, []*topo.Node{staticIntermediate(scen, client)},
			campaignSeed(p.Seed, label("adaptive", name)), p.Rounds,
			func(ctx context.Context, t core.Transport, obj core.Object, cands []string) func() core.Outcome {
				return func() core.Outcome {
					dl := core.Downloader{Transport: t, RefreshEvery: 1}
					r, err := dl.Download(ctx, obj, cands)
					*sw = append(*sw, r.Switches)
					return core.Outcome{Object: obj, Selected: r.FinalPath(), Start: r.Start, End: r.End, Err: err}
				}
			})...)
	}
	results := RunAll(specs, p.Workers)

	out := make([]AdaptiveResult, len(clients))
	for i, name := range clients {
		var oneShot, adaptive stats.Acc
		for _, r := range results[2*i].Records {
			if r.Err == nil {
				oneShot.Add(r.SelectedTp)
			}
		}
		n := 0
		for j, r := range results[2*i+1].Records {
			if r.Err == nil {
				adaptive.Add(r.SelectedTp)
				n += switches[i][j]
			}
		}
		res := AdaptiveResult{Client: name, OneShot: oneShot.Mean(), Adaptive: adaptive.Mean()}
		if res.OneShot > 0 {
			res.OneShotCV = oneShot.Std() / res.OneShot
		}
		if res.Adaptive > 0 {
			res.AdaptiveCV = adaptive.Std() / res.Adaptive
		}
		if adaptive.N() > 0 {
			res.MeanSwitches = float64(n) / float64(adaptive.N())
		}
		out[i] = res
	}
	return out
}
