package experiment

import (
	"context"

	"repro/internal/core"
	"repro/internal/topo"
)

// The extension experiments (adaptive, monitor, multipath) judge a
// selecting process other than the paper's by the paper's method. Per
// client they run two campaigns on one seed, one intermediate set and the
// full-set policy: the paper's race (nil Select) and the extension's
// process, each beside its own concurrent control download. Every link's
// capacity process draws from a named seed fork, so round i of both
// campaigns sees the same background
// (TestCampaignBackgroundIndependentOfSelector), and pairing their records
// round by round compares two selectors on one round.

// extensionPeriod is the virtual time between an extension campaign's
// rounds.
const extensionPeriod = 120

// pairedSpecs returns the two campaigns that judge ext on client: the
// paper's race first, ext second.
func pairedSpecs(scen *topo.Scenario, client *topo.Node, inters []*topo.Node, seed uint64, rounds int,
	ext func(ctx context.Context, t core.Transport, obj core.Object, cands []string) func() core.Outcome) []CampaignSpec {
	server := scen.FindServer("eBay")
	must(server != nil, "eBay server missing")
	paper := CampaignSpec{
		Scenario:  scen,
		Client:    client,
		Server:    server,
		Inters:    inters,
		Policy:    core.UniformRandomPolicy{K: len(inters)},
		Transfers: rounds,
		Seed:      seed,
		Config:    Config{Period: extensionPeriod},
	}
	extension := paper
	extension.Select = ext
	return []CampaignSpec{paper, extension}
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
