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

// MonitoredParams configures the comparison, run on one client per
// throughput category (India, Sweden, Canada).
type MonitoredParams struct {
	Seed   uint64
	Rounds int // default 80
	// RefreshEvery is how many rounds pass between background refreshes
	// of the monitor's table (default 5; 1 = refresh before every
	// transfer).
	RefreshEvery int
	Workers      int // parallel campaigns (0 = GOMAXPROCS)
}

// monitoredCandidates is how many of the client's best overlay pairs
// both strategies choose among.
const monitoredCandidates = 3

// MonitoredResult aggregates one strategy's rounds per client.
type MonitoredResult struct {
	Client string

	// ProbingAvg and MonitoredAvg are mean improvements (percent) over
	// the control direct process.
	ProbingAvg, MonitoredAvg float64

	// ProbingPenalties and MonitoredPenalties are penalty fractions of
	// indirect-selected rounds.
	ProbingPenalties, MonitoredPenalties float64

	// Disagreements counts rounds where the monitored client chose a
	// path the probing client (with fresh information) did not.
	Disagreements int
	Rounds        int
}

// RunMonitored executes the comparison, one campaign pair per client.
// The monitored process refreshes its table before the round's transfer,
// so its control starts when the refresh is done.
func RunMonitored(p MonitoredParams) []MonitoredResult {
	if p.Rounds == 0 {
		p.Rounds = 80
	}
	if p.RefreshEvery == 0 {
		p.RefreshEvery = 5
	}
	scen := topo.NewScenario(topo.Params{Seed: p.Seed})

	var specs []CampaignSpec
	for _, name := range categoryClients {
		client := findClient(scen, name)
		mon, round := core.NewMonitor(), 0
		specs = append(specs, pairedSpecs(scen, client, bestPairs(scen, client, monitoredCandidates),
			campaignSeed(p.Seed, label("monitored", name, strconv.Itoa(p.RefreshEvery))), p.Rounds,
			func(ctx context.Context, t core.Transport, obj core.Object, cands []string) func() core.Outcome {
				if round%p.RefreshEvery == 0 {
					mon.Refresh(ctx, t, obj, cands, core.Config{})
				}
				round++
				return func() core.Outcome { return core.SelectMonitored(ctx, t, obj, cands, mon, core.Config{}) }
			})...)
	}
	results := RunAll(specs, p.Workers)

	out := make([]MonitoredResult, len(categoryClients))
	for i, name := range categoryClients {
		probing, monitored := results[2*i].Records, results[2*i+1].Records
		pr, mr := summarizeRounds("", probing), summarizeRounds("", monitored)
		out[i] = MonitoredResult{
			Client:             name,
			ProbingAvg:         pr.AvgImprovement,
			MonitoredAvg:       mr.AvgImprovement,
			ProbingPenalties:   pr.PenaltyFrac,
			MonitoredPenalties: mr.PenaltyFrac,
			Rounds:             p.Rounds,
		}
		for j := range probing {
			if probing[j].Selected != monitored[j].Selected {
				out[i].Disagreements++
			}
		}
	}
	return out
}
