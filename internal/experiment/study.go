package experiment

import (
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topo"
)

// StudyParams configures the Section 3 measurement study: every client
// downloads from every chosen server through a statically chosen "good"
// indirect path, 100 times per pairing in the paper.
type StudyParams struct {
	Seed               uint64
	TransfersPerClient int      // per (client, server); default 100
	Servers            []string // server names; default all four sites
	Workers            int
}

// StudyResult is the Section 3 dataset.
type StudyResult struct {
	Scenario *topo.Scenario
	Records  []Record

	// PerClient groups records by client name.
	PerClient map[string][]Record

	// StaticInter is the a-priori chosen intermediate per client.
	StaticInter map[string]string

	// ClientCV is the post-hoc direct-path throughput coefficient of
	// variation per client (the paper's "variability" classifier).
	ClientCV map[string]float64
}

// staticIntermediate picks the a-priori "good" indirect path for a client:
// the fifth-best overlay pair by long-run mean — clearly good, but "not
// necessarily the best since it is selected statically" (paper
// Section 2.2).
func staticIntermediate(s *topo.Scenario, client *topo.Node) *topo.Node {
	inters := append([]*topo.Node{}, s.Intermediates...)
	sort.Slice(inters, func(i, j int) bool {
		return s.PairMean(client, inters[i]) > s.PairMean(client, inters[j])
	})
	if len(inters) > 4 {
		return inters[4]
	}
	return inters[len(inters)-1]
}

// RunStudy executes the Section 3 study and computes the post-hoc
// per-client statistics.
func RunStudy(p StudyParams) *StudyResult {
	if p.TransfersPerClient == 0 {
		p.TransfersPerClient = 100
	}
	scen := topo.NewScenario(topo.Params{Seed: p.Seed})

	servers := scen.Servers
	if len(p.Servers) > 0 {
		servers = nil
		for _, name := range p.Servers {
			sv := scen.FindServer(name)
			must(sv != nil, "unknown server %q", name)
			servers = append(servers, sv)
		}
	}

	var specs []CampaignSpec
	staticInter := make(map[string]string)
	for _, c := range scen.Clients {
		inter := staticIntermediate(scen, c)
		staticInter[c.Name] = inter.Name
		for _, sv := range servers {
			specs = append(specs, CampaignSpec{
				Scenario:  scen,
				Client:    c,
				Server:    sv,
				Inters:    []*topo.Node{inter},
				Policy:    core.StaticPolicy{Intermediate: inter.Name},
				Transfers: p.TransfersPerClient,
				Seed:      campaignSeed(p.Seed, label("study", c.Name, sv.Name)),
			})
		}
	}

	results := RunAll(specs, p.Workers)
	out := &StudyResult{
		Scenario:    scen,
		PerClient:   make(map[string][]Record),
		StaticInter: staticInter,
		ClientCV:    make(map[string]float64),
	}
	for _, r := range results {
		for _, rec := range r.Records {
			if rec.Err != nil {
				continue
			}
			out.Records = append(out.Records, rec)
			out.PerClient[rec.Client] = append(out.PerClient[rec.Client], rec)
		}
	}
	for client, recs := range out.PerClient {
		var acc stats.Acc
		for _, rec := range recs {
			acc.Add(rec.DirectTp)
		}
		if acc.Mean() > 0 {
			out.ClientCV[client] = acc.Std() / acc.Mean()
		}
	}
	return out
}

// Improvements extracts the improvement samples (percent) of rounds that
// selected the indirect path — the population of the paper's Figure 1.
func Improvements(recs []Record) []float64 {
	var out []float64
	for _, r := range recs {
		if r.Indirect() {
			out = append(out, r.Improvement)
		}
	}
	return out
}

// UtilizationOf returns the fraction of rounds that chose the indirect
// path.
func UtilizationOf(recs []Record) float64 {
	if len(recs) == 0 {
		return 0
	}
	n := 0
	for _, r := range recs {
		if r.Indirect() {
			n++
		}
	}
	return float64(n) / float64(len(recs))
}

// highVariabilityCV is the post-hoc CV threshold above which a client's
// direct path counts as "highly variable" for the Table I filters.
const highVariabilityCV = 0.35
