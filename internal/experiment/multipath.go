package experiment

import (
	"context"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The multipath experiment contrasts the paper's select-one-path design
// with mesh-style striping across paths (the Bullet direction from the
// related work): 500 KB chunks of the object are pulled over the direct
// path and the candidate relays concurrently with work stealing. Striping
// can aggregate bandwidth — but all of a client's paths share its access
// link, so the gain collapses exactly where the paper's penalties live.

// MultipathParams configures the comparison.
type MultipathParams struct {
	Seed    uint64
	Clients []string // default: one per category
	Rounds  int      // default 60
	Workers int      // parallel campaigns (0 = GOMAXPROCS)
}

// multipathCandidates is how many of the client's best overlay pairs
// both strategies use.
const multipathCandidates = 2

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

// RunMultipath executes the comparison, one campaign pair per client.
func RunMultipath(p MultipathParams) []MultipathResult {
	if len(p.Clients) == 0 {
		p.Clients = []string{"India", "Sweden", "Canada"}
	}
	if p.Rounds == 0 {
		p.Rounds = 60
	}
	scen := topo.NewScenario(topo.Params{Seed: p.Seed})

	out := make([]MultipathResult, len(p.Clients))
	// spreads[i] holds client i's relay byte share, one per round.
	spreads := make([][]float64, len(p.Clients))
	var specs []CampaignSpec
	for i, name := range p.Clients {
		client := scen.FindClient(name)
		must(client != nil, "unknown client %q", name)
		out[i] = MultipathResult{Client: name, SharedBottleneck: scen.ClientNet(client).SharedBottleneck, Rounds: p.Rounds}
		spread := &spreads[i]
		specs = append(specs, pairedSpecs(scen, client, bestPairs(scen, client, multipathCandidates),
			campaignSeed(p.Seed, label("multipath", name)), p.Rounds,
			func(ctx context.Context, t core.Transport, obj core.Object, cands []string) func() core.Outcome {
				return func() core.Outcome {
					mp := core.MultipathDownloader{Transport: t}
					r, err := mp.Download(ctx, obj, cands)
					var indirect, total int64
					for _, sh := range r.Shares {
						total += sh.Bytes
						if !sh.Path.IsDirect() {
							indirect += sh.Bytes
						}
					}
					share := 0.0
					if total > 0 {
						share = float64(indirect) / float64(total)
					}
					*spread = append(*spread, share)
					return core.Outcome{Object: obj, Start: r.Start, End: r.End, Err: err}
				}
			})...)
	}
	results := RunAll(specs, p.Workers)

	for i := range out {
		var share []float64
		for j, r := range results[2*i+1].Records {
			if r.Err == nil {
				share = append(share, spreads[i][j])
			}
		}
		out[i].SelectAvg = summarizeRounds("", results[2*i].Records).AvgImprovement
		out[i].StripeAvg = summarizeRounds("", results[2*i+1].Records).AvgImprovement
		out[i].StripeSpread = stats.Mean(share)
	}
	return out
}
