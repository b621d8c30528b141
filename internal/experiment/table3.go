package experiment

import (
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
)

// Table3Params configures the utilization-vs-improvement analysis of the
// paper's Table III: Duke runs a long campaign of random K = 10 sets over
// the 35-node full set under the Section 4 setup, and every intermediate
// is scored by how often it wins when offered and by how much improvement
// it delivers.
type Table3Params struct {
	Seed   uint64
	Rounds int // default 500
}

// Table3Row is one intermediate's line in Table III.
type Table3Row struct {
	Inter string
	// Utilization is chosen/offered in percent (Section 4 definition).
	Utilization float64
	// Improvement is the mean improvement (percent) of the rounds this
	// intermediate won.
	Improvement float64
	// Offered and Chosen are the raw counts.
	Offered, Chosen int64
}

// Table3Result reproduces Table III.
type Table3Result struct {
	Client string
	Rows   []Table3Row // non-zero-utilization rows, best first

	// PearsonR and SpearmanR correlate utilization with improvement
	// across rows; the paper finds them positive but imperfect.
	PearsonR, SpearmanR float64
}

// Table3 runs the campaign and derives the correlation table.
func Table3(p Table3Params) Table3Result {
	if p.Rounds == 0 {
		p.Rounds = 500
	}
	scen := sec4Scenario(p.Seed)
	result := RunCampaign(CampaignSpec{
		Scenario:  scen,
		Client:    findClient(scen, duke),
		Server:    focus(scen),
		Inters:    scen.Intermediates,
		Policy:    core.UniformRandomPolicy{K: kneeK},
		Transfers: p.Rounds,
		Seed:      campaignSeed(p.Seed, label("table3", duke)),
		Config:    Config{Period: sec4Period, Rule: core.Sequential},
	})

	perInter := make(map[string][]float64)
	for _, rec := range result.Records {
		if rec.Err == nil && rec.Indirect() {
			perInter[rec.Selected] = append(perInter[rec.Selected], rec.Improvement)
		}
	}

	res := Table3Result{Client: duke}
	snap := result.Metrics.Snapshot()
	for _, name := range snap.PathLabels() {
		ps := snap.Paths[name]
		if name == "direct" || ps.Selected == 0 {
			continue // the paper's table lists non-zero utilizations only
		}
		res.Rows = append(res.Rows, Table3Row{
			Inter:       name,
			Utilization: ps.Utilization * 100,
			Improvement: stats.Mean(perInter[name]),
			Offered:     ps.Probed,
			Chosen:      ps.Selected,
		})
	}
	sort.Slice(res.Rows, func(i, j int) bool {
		if res.Rows[i].Utilization != res.Rows[j].Utilization {
			return res.Rows[i].Utilization > res.Rows[j].Utilization
		}
		return res.Rows[i].Inter < res.Rows[j].Inter
	})

	var us, is []float64
	for _, r := range res.Rows {
		us = append(us, r.Utilization)
		is = append(is, r.Improvement)
	}
	res.PearsonR = stats.Pearson(us, is)
	res.SpearmanR = stats.Spearman(us, is)
	return res
}
