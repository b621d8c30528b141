package experiment

import (
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topo"
)

// PairStudyParams configures the per-(client, intermediate) campaigns that
// back Table II, Figure 3, and Figure 5: every client is paired with every
// intermediate in turn as a static indirect path.
type PairStudyParams struct {
	Seed             uint64
	Scenario         topo.Params
	TransfersPerPair int    // default 30
	Server           string // default "eBay" (the paper's focus dataset)
	Config           Config
	Workers          int
}

func (p PairStudyParams) withDefaults() PairStudyParams {
	if p.Scenario.Seed == 0 {
		p.Scenario.Seed = p.Seed
	}
	if p.TransfersPerPair == 0 {
		p.TransfersPerPair = 30
	}
	if p.Server == "" {
		p.Server = "eBay"
	}
	return p
}

// PairStudyResult is the per-pair dataset.
type PairStudyResult struct {
	Scenario *topo.Scenario
	Server   string

	// PerPair indexes records by client name, then intermediate name.
	PerPair map[string]map[string][]Record
}

// RunPairStudy executes one campaign per (client, intermediate) pair.
func RunPairStudy(p PairStudyParams) *PairStudyResult {
	p = p.withDefaults()
	scen := topo.NewScenario(p.Scenario)
	server := scen.FindServer(p.Server)
	must(server != nil, "unknown server %q", p.Server)

	var specs []CampaignSpec
	for _, c := range scen.Clients {
		for _, in := range scen.Intermediates {
			specs = append(specs, CampaignSpec{
				Scenario:  scen,
				Client:    c,
				Server:    server,
				Inters:    []*topo.Node{in},
				Policy:    core.StaticPolicy{Intermediate: in.Name},
				Transfers: p.TransfersPerPair,
				Seed:      campaignSeed(p.Seed, label("pair", c.Name, in.Name)),
				Config:    p.Config,
			})
		}
	}
	results := RunAll(specs, p.Workers)

	out := &PairStudyResult{
		Scenario: scen,
		Server:   p.Server,
		PerPair:  make(map[string]map[string][]Record),
	}
	for i, r := range results {
		client := specs[i].Client.Name
		inter := specs[i].Inters[0].Name
		m := out.PerPair[client]
		if m == nil {
			m = make(map[string][]Record)
			out.PerPair[client] = m
		}
		for _, rec := range r.Records {
			if rec.Err == nil {
				m[inter] = append(m[inter], rec)
			}
		}
	}
	return out
}

// InterUtil is an intermediate's utilization as observed by one client (or
// aggregated).
type InterUtil struct {
	Inter       string
	Utilization float64 // fraction of rounds that chose this indirect path
}

// Table2Row is one row of the paper's Table II: a client and its top three
// intermediates by per-client utilization.
type Table2Row struct {
	Client string
	Top    []InterUtil // up to 3, best first
}

// Table2Result reproduces Table II.
type Table2Result struct {
	Rows []Table2Row

	// OverlapCount maps each intermediate to the number of clients whose
	// top-3 include it — the paper's observation that "a handful of
	// intermediate nodes may be able to yield a majority of the
	// improvement".
	OverlapCount map[string]int
}

// Table2 extracts each client's top-3 intermediates by utilization.
func Table2(ps *PairStudyResult) Table2Result {
	res := Table2Result{OverlapCount: make(map[string]int)}
	clients := make([]string, 0, len(ps.PerPair))
	for c := range ps.PerPair {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	for _, c := range clients {
		var utils []InterUtil
		for inter, recs := range ps.PerPair[c] {
			utils = append(utils, InterUtil{Inter: inter, Utilization: UtilizationOf(recs)})
		}
		sort.Slice(utils, func(i, j int) bool {
			if utils[i].Utilization != utils[j].Utilization {
				return utils[i].Utilization > utils[j].Utilization
			}
			return utils[i].Inter < utils[j].Inter
		})
		if len(utils) > 3 {
			utils = utils[:3]
		}
		res.Rows = append(res.Rows, Table2Row{Client: c, Top: utils})
		for _, u := range utils {
			res.OverlapCount[u.Inter]++
		}
	}
	return res
}

// Fig3Point is one scatter point of Figure 3: a round's direct-path
// throughput against its improvement.
type Fig3Point struct {
	DirectTp    float64 // bits/sec
	Improvement float64 // percent
}

// Fig3Client is one client's panel of Figure 3.
type Fig3Client struct {
	Client string
	Points []Fig3Point
	// Slope is the OLS slope of improvement (percent) per Mb/s of direct
	// throughput; the paper's figure shows downward trends, i.e.
	// negative slopes.
	Slope float64
	R2    float64
}

// Fig3Result reproduces Figure 3: improvement vs. client throughput for
// each client over its top three intermediates.
type Fig3Result struct {
	Clients []Fig3Client
	// MeanSlope is the across-client average slope (%/Mbps).
	MeanSlope float64
	// FractionNegative is the share of clients with a negative slope.
	FractionNegative float64
}

// Fig3 derives the improvement-vs-throughput relation from the pair study,
// using each client's top three intermediates (as the paper's figure
// does).
func Fig3(ps *PairStudyResult) Fig3Result {
	t2 := Table2(ps)
	var res Fig3Result
	neg := 0
	var slopeSum float64
	for _, row := range t2.Rows {
		fc := Fig3Client{Client: row.Client}
		var xs, ys []float64
		for _, top := range row.Top {
			for _, rec := range ps.PerPair[row.Client][top.Inter] {
				if !rec.Indirect() {
					continue
				}
				pt := Fig3Point{DirectTp: rec.DirectTp, Improvement: rec.Improvement}
				fc.Points = append(fc.Points, pt)
				xs = append(xs, rec.DirectTp/1e6)
				ys = append(ys, rec.Improvement)
			}
		}
		if len(xs) >= 2 {
			fit := stats.OLS(xs, ys)
			fc.Slope, fc.R2 = fit.Slope, fit.R2
			slopeSum += fit.Slope
			if fit.Slope < 0 {
				neg++
			}
			res.Clients = append(res.Clients, fc)
		}
	}
	if n := len(res.Clients); n > 0 {
		res.MeanSlope = slopeSum / float64(n)
		res.FractionNegative = float64(neg) / float64(n)
	}
	return res
}

// Fig5Row is one intermediate's utilization statistics across clients.
type Fig5Row struct {
	Inter string
	// Average, Stdev, RMS are over per-client utilizations (percent), as
	// plotted in the paper's Figure 5.
	Average, Stdev, RMS float64
}

// Fig5Result reproduces Figure 5: total utilization per intermediate node,
// with an overall average the paper reports as 45%.
type Fig5Result struct {
	Rows []Fig5Row
	// OverallAvg is the mean utilization across all intermediates
	// (percent).
	OverallAvg float64
}

// Fig5 aggregates intermediate utilizations across all clients.
func Fig5(ps *PairStudyResult) Fig5Result {
	// Clients in sorted order: each intermediate's utilizations feed a
	// running accumulator, and a float sum depends on its order.
	clients := make([]string, 0, len(ps.PerPair))
	for c := range ps.PerPair {
		clients = append(clients, c)
	}
	sort.Strings(clients)
	perInter := make(map[string][]float64)
	for _, c := range clients {
		for inter, recs := range ps.PerPair[c] {
			perInter[inter] = append(perInter[inter], UtilizationOf(recs)*100)
		}
	}
	inters := make([]string, 0, len(perInter))
	for in := range perInter {
		inters = append(inters, in)
	}
	sort.Strings(inters)

	var res Fig5Result
	var total float64
	for _, in := range inters {
		var acc stats.Acc
		for _, u := range perInter[in] {
			acc.Add(u)
		}
		res.Rows = append(res.Rows, Fig5Row{
			Inter:   in,
			Average: acc.Mean(),
			Stdev:   acc.Std(),
			RMS:     acc.RMS(),
		})
		total += acc.Mean()
	}
	if len(res.Rows) > 0 {
		res.OverallAvg = total / float64(len(res.Rows))
	}
	return res
}
