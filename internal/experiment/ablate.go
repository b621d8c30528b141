package experiment

import (
	"strconv"

	"repro/internal/core"
	"repro/internal/obs"
	"repro/internal/stats"
	"repro/internal/topo"
)

// The ablations quantify the design choices DESIGN.md calls out: the probe
// size x, the selection rule, utilization-weighted candidate sets, and the
// cost of shared bottlenecks.

// AblationPoint is one configuration's aggregate outcome.
type AblationPoint struct {
	Label string

	// AvgImprovement is the mean improvement (percent) over all rounds.
	AvgImprovement float64
	// Utilization is the indirect-selection fraction.
	Utilization float64
	// PenaltyFrac is the fraction of indirect-selected rounds with
	// negative improvement (mispredictions).
	PenaltyFrac float64
	// ProbeOverheadPct is the mean share of round duration spent probing.
	ProbeOverheadPct float64
}

// summarizeRounds folds campaign records into an AblationPoint.
func summarizeRounds(lbl string, recs []Record) AblationPoint {
	pt := AblationPoint{Label: lbl}
	var imps []float64
	indirect, penalties := 0, 0
	for _, r := range recs {
		if r.Err != nil {
			continue
		}
		imps = append(imps, r.Improvement)
		if r.Indirect() {
			indirect++
			if r.Improvement < 0 {
				penalties++
			}
		}
	}
	pt.AvgImprovement = stats.Mean(imps)
	if len(imps) > 0 {
		pt.Utilization = float64(indirect) / float64(len(imps))
	}
	if indirect > 0 {
		pt.PenaltyFrac = float64(penalties) / float64(indirect)
	}
	return pt
}

// AblationParams configures all ablation sweeps.
type AblationParams struct {
	Seed uint64
	// Clients are the subjects; default: one client per category.
	Clients []string
	Rounds  int // default 80 per configuration per client
	Workers int
}

// categoryClients are the default subjects of the ablations and of the
// monitor and multipath extensions: one client per throughput category
// (Low, Medium, High).
var categoryClients = []string{"India", "Sweden", "Canada"}

// ablationPeriod is the virtual time between an ablation campaign's
// rounds.
const ablationPeriod = 60

func (p AblationParams) withDefaults() AblationParams {
	if len(p.Clients) == 0 {
		p.Clients = categoryClients
	}
	if p.Rounds == 0 {
		p.Rounds = 80
	}
	return p
}

// staticSpec is the campaign an ablation runs for one client of scen:
// the client's static intermediate under cfg, seeded from lbl.
func (p AblationParams) staticSpec(scen *topo.Scenario, name string, cfg Config, lbl string) CampaignSpec {
	client := findClient(scen, name)
	inter := staticIntermediate(scen, client)
	return CampaignSpec{
		Scenario:  scen,
		Client:    client,
		Server:    focus(scen),
		Inters:    []*topo.Node{inter},
		Policy:    core.StaticPolicy{Intermediate: inter.Name},
		Transfers: p.Rounds,
		Seed:      campaignSeed(p.Seed, lbl),
		Config:    cfg,
	}
}

// AblateProbeSize sweeps the probe size x and reports how prediction
// quality and overhead respond. The paper determined x = 100 KB
// experimentally; small probes terminate inside slow start and mispredict,
// huge probes waste time on both paths.
func AblateProbeSize(p AblationParams, sizes []int64) []AblationPoint {
	p = p.withDefaults()
	if len(sizes) == 0 {
		sizes = []int64{10_000, 25_000, 50_000, 100_000, 250_000, 500_000, 1_000_000}
	}
	scen := topo.NewScenario(topo.Params{Seed: p.Seed})
	var specs []CampaignSpec
	var labels []string
	for _, x := range sizes {
		cfg := Config{Period: ablationPeriod, ProbeBytes: x}
		for _, name := range p.Clients {
			specs = append(specs, p.staticSpec(scen, name, cfg, label("probe", strconv.FormatInt(x, 10), name)))
			labels = append(labels, "x="+strconv.FormatInt(x, 10))
		}
	}
	results := RunAll(specs, p.Workers)
	return groupPoints(labels, results)
}

// AblateSelectionRule compares first-finished selection with
// max-measured-throughput selection on identical campaigns.
func AblateSelectionRule(p AblationParams) []AblationPoint {
	p = p.withDefaults()
	scen := topo.NewScenario(topo.Params{Seed: p.Seed})
	var specs []CampaignSpec
	var labels []string
	for _, rule := range []core.Rule{core.FirstFinished, core.MaxThroughput} {
		cfg := Config{Period: ablationPeriod, Rule: rule}
		for _, name := range p.Clients {
			specs = append(specs, p.staticSpec(scen, name, cfg, label("rule", rule.String(), name)))
			labels = append(labels, rule.String())
		}
	}
	results := RunAll(specs, p.Workers)
	return groupPoints(labels, results)
}

// AblateWeightedPolicy compares the uniform random set against the
// utilization-weighted random set the paper proposes in Section 6, at the
// same set size, under the Section 4 methodology.
func AblateWeightedPolicy(p AblationParams, setSize int) []AblationPoint {
	p = p.withDefaults()
	if setSize == 0 {
		setSize = 5
	}
	scen := sec4Scenario(p.Seed)
	server := focus(scen)
	cfg := Config{Period: ablationPeriod, Rule: core.Sequential}

	var specs []CampaignSpec
	var labels []string
	for _, name := range p.Clients {
		client := findClient(scen, name)

		specs = append(specs, CampaignSpec{
			Scenario:  scen,
			Client:    client,
			Server:    server,
			Inters:    scen.Intermediates,
			Policy:    core.UniformRandomPolicy{K: setSize},
			Transfers: p.Rounds,
			Seed:      campaignSeed(p.Seed, label("policy", "uniform", name)),
			Config:    cfg,
		})
		labels = append(labels, "uniform")

		m := obs.NewMetrics()
		specs = append(specs, CampaignSpec{
			Scenario:  scen,
			Client:    client,
			Server:    server,
			Inters:    scen.Intermediates,
			Policy:    core.WeightedRandomPolicy{K: setSize, Metrics: m},
			Transfers: p.Rounds,
			Seed:      campaignSeed(p.Seed, label("policy", "weighted", name)),
			Config:    cfg,
			Metrics:   m,
		})
		labels = append(labels, "weighted")
	}
	results := RunAll(specs, p.Workers)
	return groupPoints(labels, results)
}

// AblateSharedBottleneck sweeps the fraction of clients whose access link
// pins both paths, showing how shared bottlenecks erode improvement and
// inflate penalties (a paper-identified failure mode).
func AblateSharedBottleneck(p AblationParams, fracs []float64) []AblationPoint {
	p = p.withDefaults()
	if len(fracs) == 0 {
		fracs = []float64{0.0001, 0.25, 0.5, 0.999}
	}
	var out []AblationPoint
	for _, f := range fracs {
		scen := topo.NewScenario(topo.Params{Seed: p.Seed, SharedBottleneckFrac: f})
		var specs []CampaignSpec
		for _, name := range p.Clients {
			specs = append(specs, p.staticSpec(scen, name, Config{Period: ablationPeriod},
				label("shared", strconv.FormatFloat(f, 'g', -1, 64), name)))
		}
		results := RunAll(specs, p.Workers)
		var recs []Record
		for _, r := range results {
			recs = append(recs, r.Records...)
		}
		out = append(out, summarizeRounds("frac="+strconv.FormatFloat(f, 'g', 3, 64), recs))
	}
	return out
}

// groupPoints merges same-labelled campaign results into one point each,
// preserving first-appearance order.
func groupPoints(labels []string, results []CampaignResult) []AblationPoint {
	byLabel := make(map[string][]Record)
	var order []string
	for i, r := range results {
		if _, ok := byLabel[labels[i]]; !ok {
			order = append(order, labels[i])
		}
		byLabel[labels[i]] = append(byLabel[labels[i]], r.Records...)
	}
	var out []AblationPoint
	for _, lbl := range order {
		pt := summarizeRounds(lbl, byLabel[lbl])
		pt.ProbeOverheadPct = probeOverhead(byLabel[lbl])
		out = append(out, pt)
	}
	return out
}

// probeOverhead estimates the probing share of the selecting process's
// round time from probe and overall throughput.
func probeOverhead(recs []Record) float64 {
	var sum float64
	n := 0
	for _, r := range recs {
		if r.Err != nil || r.SelectedTp <= 0 || r.ProbeBestTp <= 0 {
			continue
		}
		// Round duration = size/selectedTp; probe duration approximated
		// by probeBytes/probeBestTp is not recorded directly, so use the
		// throughput deficit as the proxy: 1 - selected/best ceiling.
		// Neither throughput is NaN (where the builtin max would differ
		// from an a > b pick): each is a core Throughput, 0 or a byte
		// count over a positive span of the simulator's clock, and
		// TestCampaignThroughputsAreNumbers checks every rule's records.
		deficit := 1 - r.SelectedTp/max(r.ProbeBestTp, r.SelectedTp)
		sum += deficit * 100
		n++
	}
	if n == 0 {
		return 0
	}
	return sum / float64(n)
}

// AblateObjectSize sweeps the download size, showing why the paper
// restricts itself to files of at least 2 MB: short transfers are
// dominated by slow start and the fixed probing overhead, so indirect
// routing cannot pay for itself.
func AblateObjectSize(p AblationParams, sizes []int64) []AblationPoint {
	p = p.withDefaults()
	if len(sizes) == 0 {
		sizes = []int64{250_000, 500_000, 1_000_000, 2_000_000, 4_000_000, 8_000_000}
	}
	scen := topo.NewScenario(topo.Params{Seed: p.Seed})
	var specs []CampaignSpec
	var labels []string
	for _, size := range sizes {
		cfg := Config{Period: ablationPeriod, ObjectBytes: size}
		for _, name := range p.Clients {
			specs = append(specs, p.staticSpec(scen, name, cfg, label("objsize", strconv.FormatInt(size, 10), name)))
			labels = append(labels, "size="+strconv.FormatInt(size, 10))
		}
	}
	results := RunAll(specs, p.Workers)
	return groupPoints(labels, results)
}
