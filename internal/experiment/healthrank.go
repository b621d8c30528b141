package experiment

import (
	"strconv"
	"time"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/randx"
	"repro/internal/registry"
	"repro/internal/topo"
)

// The health-ranked candidate experiment closes the loop between the
// telemetry subsystem and the paper's Section 4 result. The paper shows a
// random set of ~10 of 35 intermediates captures nearly all attainable
// improvement; the registry's health-ranked List exists on the bet that a
// *ranked* 10 does at least as well, because health telemetry concentrates
// the candidate budget on the paths that have recently delivered. This
// driver seeds an obs.HealthMonitor from observation transfers over the
// full intermediate set, publishes per-intermediate health to a live
// registry.Server exactly as relayd self-reports, takes the registry's
// ListRanked(K) as the candidate set, and measures it against uniform
// random K-sets under the Section 4 methodology.

// HealthRankParams configures the comparison.
type HealthRankParams struct {
	Seed     uint64
	Scenario topo.Params

	// Client is the measuring client (default "Duke (client)").
	Client string

	// K is the candidate-set size under test (default 10, the paper's
	// knee).
	K int

	// SeedTransfers is how many observation transfers per intermediate
	// seed the health monitor (default 2).
	SeedTransfers int
	// SeedBytes is the size of each observation transfer (default 500 KB
	// — large enough that delivered throughput dominates setup cost).
	SeedBytes int64

	// EvalTransfers is the rounds per evaluation campaign (default 40).
	EvalTransfers int
	// RandomSets is how many independent random K-sets form the baseline
	// mean (default 3).
	RandomSets int

	Config  Config
	Workers int
}

func (p HealthRankParams) withDefaults() HealthRankParams {
	if p.Scenario.Seed == 0 {
		p.Scenario.Seed = p.Seed
	}
	if p.Scenario.NumIntermediates == 0 {
		p.Scenario.NumIntermediates = 35
	}
	if p.Client == "" {
		p.Client = "Duke (client)"
	}
	if p.K == 0 {
		p.K = 10
	}
	if p.SeedTransfers == 0 {
		p.SeedTransfers = 2
	}
	if p.SeedBytes == 0 {
		p.SeedBytes = 500_000
	}
	if p.EvalTransfers == 0 {
		p.EvalTransfers = 80
	}
	if p.RandomSets == 0 {
		p.RandomSets = 3
	}
	if p.Config.Period == 0 {
		p.Config.Period = 30
	}
	// Section 4 methodology, as in Fig6: per-candidate preliminary tests,
	// improvement measured on the selected transfer itself.
	p.Config.SequentialProbes = true
	p.Config.ExcludeProbePhase = true
	return p
}

// HealthRankResult is the comparison outcome.
type HealthRankResult struct {
	Client string
	K      int

	// Ranked is the registry's health-ranked candidate set (intermediate
	// names, healthiest first).
	Ranked []string
	// Health maps every intermediate to the health value published to the
	// registry during seeding.
	Health map[string]float64

	// RankedAvg is the mean improvement (percent) with the health-ranked
	// set; RandomAvgs the per-draw means for the random baseline sets and
	// RandomAvg their mean.
	RankedAvg  float64
	RandomAvgs []float64
	RandomAvg  float64
}

// RunHealthRank seeds path health over the full intermediate set, asks a
// live registry for the healthiest K, and races that set against uniform
// random K-sets.
func RunHealthRank(p HealthRankParams) HealthRankResult {
	p = p.withDefaults()
	cfg := p.Config.withDefaults()
	scen := topo.NewScenario(p.Scenario)
	server := scen.FindServer("eBay")
	must(server != nil, "eBay server missing")
	client := scen.FindClient(p.Client)
	must(client != nil, "unknown client %q", p.Client)

	res := HealthRankResult{Client: p.Client, K: p.K}
	res.Health = seedHealth(p, cfg, scen, client, server)

	// Publish to a live registry the way relayd self-reports, then take
	// its health-ranked list as the candidate set. Registry names must be
	// wire-safe, so intermediates register under their domain.
	reg := &registry.Server{}
	byDomain := make(map[string]*topo.Node, len(scen.Intermediates))
	for _, in := range scen.Intermediates {
		byDomain[in.Domain] = in
		must(reg.RegisterHealth(in.Domain, in.Domain+":3128", time.Hour, res.Health[in.Name]) == nil,
			"register %q", in.Domain)
	}
	var ranked []*topo.Node
	for _, e := range reg.ListRanked(p.K) {
		in := byDomain[e.Name]
		must(in != nil, "registry returned unknown relay %q", e.Name)
		ranked = append(ranked, in)
		res.Ranked = append(res.Ranked, in.Name)
	}

	// Evaluation campaigns: the ranked set plus RandomSets uniform draws,
	// each a fixed candidate set probed in full every round.
	rng := randx.New(campaignSeed(p.Seed, label("healthrank", p.Client, "draws")))
	specs := []CampaignSpec{{
		Scenario: scen, Client: client, Server: server,
		Inters: ranked, Policy: core.UniformRandomPolicy{K: len(ranked)},
		Transfers: p.EvalTransfers,
		Seed:      campaignSeed(p.Seed, label("healthrank", p.Client, "ranked")),
		Config:    p.Config,
	}}
	for i := 0; i < p.RandomSets; i++ {
		perm := rng.Perm(len(scen.Intermediates))
		subset := make([]*topo.Node, 0, p.K)
		for _, idx := range perm[:p.K] {
			subset = append(subset, scen.Intermediates[idx])
		}
		specs = append(specs, CampaignSpec{
			Scenario: scen, Client: client, Server: server,
			Inters: subset, Policy: core.UniformRandomPolicy{K: len(subset)},
			Transfers: p.EvalTransfers,
			Seed:      campaignSeed(p.Seed, label("healthrank", p.Client, "random", strconv.Itoa(i))),
			Config:    p.Config,
		})
	}
	results := RunAll(specs, p.Workers)

	res.RankedAvg = mean(okImprovements(results[0].Records))
	for _, r := range results[1:] {
		res.RandomAvgs = append(res.RandomAvgs, mean(okImprovements(r.Records)))
	}
	res.RandomAvg = mean(res.RandomAvgs)
	return res
}

// seedHealth runs the observation phase: SeedTransfers fetches over every
// intermediate path in one shared world, folded into a HealthMonitor on
// the simulator's clock, then collapsed into the scalar each relay would
// publish. The registry stores one float in [0,1], and among all-healthy
// paths the damped score alone cannot separate fast from slow (its
// throughput factor is a collapse detector, a fast/slow EWMA ratio), so
// the published value scales the score by the path's throughput EWMA
// normalized against the best peer — mirroring how an operator would
// derive a ranking signal from /debug/paths.
func seedHealth(p HealthRankParams, cfg Config, scen *topo.Scenario, client, server *topo.Node) map[string]float64 {
	world, obj, _ := newWorld(scen, campaignSeed(p.Seed, label("healthrank", p.Client, "seed")), cfg,
		client, server, scen.Intermediates)
	defer world.Inst.Close()

	// The window must span the whole observation phase: the monitor ranks
	// on everything seen, not a recent slice.
	mon := obs.NewHealthMonitor(obs.HealthConfig{
		Window: 1e6, Buckets: 64, MaxSuccessAge: 1e6,
		Clock: world.Now,
	})
	for round := 0; round < p.SeedTransfers; round++ {
		for _, in := range scen.Intermediates {
			h := world.Start(obj, core.Path{Via: in.Name}, 0, p.SeedBytes)
			world.Wait(h)
			r := h.Result()
			mon.Observe(in.Name, core.ErrClassOf(r.Err), r.Duration(), r.Bytes)
			world.Inst.Net.Engine().RunUntil(world.Now() + 2)
		}
	}

	snap := mon.Snapshot()
	maxEWMA := 0.0
	for _, ph := range snap.Paths {
		if ph.ThroughputEWMA > maxEWMA {
			maxEWMA = ph.ThroughputEWMA
		}
	}
	health := make(map[string]float64, len(snap.Paths))
	for _, ph := range snap.Paths {
		v := ph.Score
		if maxEWMA > 0 {
			v *= ph.ThroughputEWMA / maxEWMA
		}
		health[ph.Path] = v
	}
	return health
}

// okImprovements extracts the improvements of error-free rounds.
func okImprovements(recs []Record) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Err == nil {
			out = append(out, r.Improvement)
		}
	}
	return out
}
