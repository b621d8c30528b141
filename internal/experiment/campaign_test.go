package experiment

import (
	"math"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/topo"
)

// smallSpec builds a quick single-intermediate campaign spec.
func smallSpec(seed uint64, transfers int) CampaignSpec {
	scen := topo.NewScenario(topo.Params{Seed: seed})
	client := scen.FindClient("Korea") // Low-throughput, benefits clearly
	inter := staticIntermediate(scen, client)
	return CampaignSpec{
		Scenario:  scen,
		Client:    client,
		Server:    scen.Servers[0],
		Inters:    []*topo.Node{inter},
		Policy:    core.StaticPolicy{Intermediate: inter.Name},
		Transfers: transfers,
		Seed:      seed,
	}
}

func TestRunCampaignRecordCount(t *testing.T) {
	res := RunCampaign(smallSpec(1, 12))
	if len(res.Records) != 12 {
		t.Fatalf("records = %d, want 12", len(res.Records))
	}
	for i, r := range res.Records {
		if r.Err != nil {
			t.Fatalf("round %d failed: %v", i, r.Err)
		}
		if r.DirectTp <= 0 || r.SelectedTp <= 0 {
			t.Fatalf("round %d has non-positive throughputs: %+v", i, r)
		}
		if r.Client != "Korea" {
			t.Fatalf("round %d has wrong client %q", i, r.Client)
		}
	}
}

func TestRunCampaignDeterminism(t *testing.T) {
	a := RunCampaign(smallSpec(7, 8))
	b := RunCampaign(smallSpec(7, 8))
	for i := range a.Records {
		if a.Records[i].Improvement != b.Records[i].Improvement ||
			a.Records[i].Selected != b.Records[i].Selected {
			t.Fatalf("round %d differs across identical runs", i)
		}
	}
}

func TestRunCampaignSeedsDiffer(t *testing.T) {
	a := RunCampaign(smallSpec(1, 10))
	b := RunCampaign(smallSpec(2, 10))
	same := 0
	for i := range a.Records {
		if a.Records[i].Improvement == b.Records[i].Improvement {
			same++
		}
	}
	if same == len(a.Records) {
		t.Fatal("different seeds produced identical campaigns")
	}
}

func TestRunCampaignRoundSpacing(t *testing.T) {
	res := RunCampaign(smallSpec(3, 5))
	for i := 1; i < len(res.Records); i++ {
		gap := res.Records[i].Time - res.Records[i-1].Time
		if gap < 300 { // period 360 with some tolerance for overruns
			t.Fatalf("rounds %d-%d only %.0fs apart", i-1, i, gap)
		}
	}
}

func TestRunCampaignDirectSelectionNearZeroImprovement(t *testing.T) {
	// When the direct path wins the probe race, the selecting process and
	// the control process share the direct path; improvement must be
	// near zero (small probing overhead only).
	res := RunCampaign(smallSpec(4, 30))
	for _, r := range res.Records {
		if !r.Indirect() {
			if r.Improvement > 10 || r.Improvement < -25 {
				t.Fatalf("direct-selected round improvement %.1f%%, want ~0", r.Improvement)
			}
		}
	}
}

// TestRunCampaignPathTallyMatchesRecords checks the campaign's
// utilization table against its records, raced and with sequential
// probes: every intermediate was probed once per round that offered it
// and selected once per round it won.
func TestRunCampaignPathTallyMatchesRecords(t *testing.T) {
	for _, sequential := range []bool{false, true} {
		scen := topo.NewScenario(topo.Params{Seed: 5})
		spec := CampaignSpec{
			Scenario:  scen,
			Client:    scen.FindClient("Korea"),
			Server:    scen.Servers[0],
			Inters:    scen.Intermediates[:6],
			Policy:    core.UniformRandomPolicy{K: 3},
			Transfers: 20,
			Seed:      5,
		}
		spec.Config.SequentialProbes = sequential
		res := RunCampaign(spec)
		won := 0
		for _, in := range spec.Inters {
			offered, selected := 0, 0
			for _, r := range res.Records {
				if slices.Contains(r.Candidates, in.Name) {
					offered++
				}
				if r.Selected == in.Name {
					selected++
				}
			}
			won += selected
			if ps := res.Metrics.Path(in.Name); ps.Probed != int64(offered) || ps.Selected != int64(selected) {
				t.Errorf("sequential=%v %s: tally probed %d, selected %d; records say %d, %d",
					sequential, in.Name, ps.Probed, ps.Selected, offered, selected)
			}
		}
		if won == 0 {
			t.Errorf("sequential=%v: no round selected an intermediate", sequential)
		}
	}
}

func TestRunCampaignSequentialProbes(t *testing.T) {
	spec := smallSpec(6, 10)
	spec.Config.SequentialProbes = true
	spec.Config.ExcludeProbePhase = true
	res := RunCampaign(spec)
	for i, r := range res.Records {
		if r.Err != nil {
			t.Fatalf("sequential round %d failed: %v", i, r.Err)
		}
	}
}

// TestCampaignThroughputsAreNumbers backs probeOverhead's builtin max,
// which returns NaN where an a > b pick would not: under every selection
// rule, sequential probing included, no record's selected or best-probe
// throughput is NaN.
func TestCampaignThroughputsAreNumbers(t *testing.T) {
	for _, cfg := range []Config{
		{Rule: core.FirstFinished},
		{Rule: core.MaxThroughput},
		{SequentialProbes: true, ExcludeProbePhase: true},
	} {
		spec := smallSpec(3, 10)
		spec.Config = cfg
		for i, r := range RunCampaign(spec).Records {
			if math.IsNaN(r.SelectedTp) || math.IsNaN(r.ProbeBestTp) {
				t.Fatalf("%+v round %d: selected %v, best probe %v", cfg, i, r.SelectedTp, r.ProbeBestTp)
			}
		}
	}
}

func TestRunAllOrderAndParallelism(t *testing.T) {
	specs := []CampaignSpec{smallSpec(1, 4), smallSpec(2, 4), smallSpec(3, 4)}
	seq := RunAll(specs, 1)
	par := RunAll(specs, 3)
	for i := range specs {
		if len(seq[i].Records) != 4 || len(par[i].Records) != 4 {
			t.Fatalf("spec %d wrong record counts", i)
		}
		for j := range seq[i].Records {
			if seq[i].Records[j].Improvement != par[i].Records[j].Improvement {
				t.Fatalf("parallel execution changed results (spec %d round %d)", i, j)
			}
		}
	}
}

func TestRunAllEmpty(t *testing.T) {
	if got := RunAll(nil, 4); len(got) != 0 {
		t.Fatal("empty spec list should yield empty results")
	}
}

func TestCampaignSeedStability(t *testing.T) {
	a := campaignSeed(1, "study|X|Y")
	b := campaignSeed(1, "study|X|Y")
	c := campaignSeed(1, "study|X|Z")
	d := campaignSeed(2, "study|X|Y")
	if a != b {
		t.Fatal("campaignSeed not deterministic")
	}
	if a == c || a == d {
		t.Fatal("campaignSeed collisions across labels/seeds")
	}
}

func TestLabel(t *testing.T) {
	if got := label("a", "b", "c"); got != "a|b|c" {
		t.Fatalf("label = %q", got)
	}
	if got := label(); got != "" {
		t.Fatalf("empty label = %q", got)
	}
}

func TestConfigDefaultsApplied(t *testing.T) {
	cfg := Config{}.withDefaults()
	if cfg.ObjectBytes != 4_000_000 || cfg.ProbeBytes != core.DefaultProbeBytes {
		t.Fatalf("defaults wrong: %+v", cfg)
	}
	if cfg.Period != 360 || cfg.Warmup != 600 {
		t.Fatalf("schedule defaults wrong: %+v", cfg)
	}
	over := Config{ObjectBytes: 123, ProbeBytes: 7, Period: 1, Warmup: 2}.withDefaults()
	if over.ObjectBytes != 123 || over.ProbeBytes != 7 || over.Period != 1 || over.Warmup != 2 {
		t.Fatalf("overrides lost: %+v", over)
	}
}
