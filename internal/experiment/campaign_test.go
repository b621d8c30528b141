package experiment

import (
	"context"
	"math"
	"reflect"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/topo"
)

// raceSpec is a campaign whose rounds vary in winner and candidate set.
func raceSpec() CampaignSpec {
	scen := topo.NewScenario(topo.Params{Seed: 5})
	return CampaignSpec{
		Scenario:  scen,
		Client:    scen.FindClient("Korea"),
		Server:    scen.Servers[0],
		Inters:    scen.Intermediates[:6],
		Policy:    core.UniformRandomPolicy{K: 3},
		Transfers: 20,
		Seed:      5,
	}
}

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
// utilization table against its records, raced and under the Section 4
// methodology's sequential probes: every intermediate was probed once
// per round that offered it and selected once per round it won.
func TestRunCampaignPathTallyMatchesRecords(t *testing.T) {
	for _, rule := range []core.Rule{core.FirstFinished, core.Sequential} {
		spec := raceSpec()
		spec.Config.Rule = rule
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
				t.Errorf("%v %s: tally probed %d, selected %d; records say %d, %d",
					rule, in.Name, ps.Probed, ps.Selected, offered, selected)
			}
		}
		if won == 0 {
			t.Errorf("%v: no round selected an intermediate", rule)
		}
	}
}

func TestRunCampaignSequentialProbes(t *testing.T) {
	spec := smallSpec(6, 10)
	spec.Config.Rule = core.Sequential
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
		{Rule: core.Sequential},
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

// race is the paper's selecting process under the default Config, as a
// Select value.
func race(ctx context.Context, t core.Transport, obj core.Object, cands []string) func() core.Outcome {
	return core.Race(ctx, t, obj, cands, core.Config{}).Fetch
}

// TestRunCampaignSelectRaceMatchesNil pins the hook's contract: a Select
// that returns core.Race's Fetch is the nil Select, so the control starts
// at the commit point whichever way the race is given.
func TestRunCampaignSelectRaceMatchesNil(t *testing.T) {
	explicit := raceSpec()
	explicit.Select = race
	got, want := RunCampaign(explicit).Records, RunCampaign(raceSpec()).Records
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("explicit core.Race records differ from nil Select:\n got  %+v\n want %+v", got, want)
	}
}

// TestCampaignBackgroundIndependentOfSelector is the basis for pairing
// two campaigns round by round: on one seed, the capacity of every link
// of the direct and the indirect paths at each round start, and the round
// start itself, are the same whether the selecting process races probes
// or fetches the whole object on the first candidate. The racing arm is
// core.Race behind the sampling hook, whose records must equal the nil
// Select's.
func TestCampaignBackgroundIndependentOfSelector(t *testing.T) {
	scen := topo.NewScenario(topo.Params{Seed: 42})
	client := scen.FindClient("India")
	server := scen.FindServer("eBay")
	inters := bestPairs(scen, client, 3)
	spec := CampaignSpec{
		Scenario:  scen,
		Client:    client,
		Server:    server,
		Inters:    inters,
		Policy:    core.UniformRandomPolicy{K: len(inters)},
		Transfers: 15,
		Seed:      campaignSeed(42, "background"),
	}
	// sampled runs spec with the selecting process proc, recording every
	// path link's capacity at each round start.
	sampled := func(proc func(ctx context.Context, t core.Transport, obj core.Object, cands []string) func() core.Outcome) ([][]float64, []Record) {
		var trace [][]float64
		s := spec
		s.Select = func(ctx context.Context, t core.Transport, obj core.Object, cands []string) func() core.Outcome {
			inst := t.(*httpsim.World).Inst
			links := inst.DirectPath(server)
			for _, in := range inters {
				links = append(links, inst.IndirectPath(in, server)...)
			}
			caps := make([]float64, len(links))
			for i, l := range links {
				caps[i] = l.Capacity()
			}
			trace = append(trace, caps)
			return proc(ctx, t, obj, cands)
		}
		return trace, RunCampaign(s).Records
	}
	forced := func(ctx context.Context, t core.Transport, obj core.Object, cands []string) func() core.Outcome {
		return func() core.Outcome {
			p := core.Path{Via: cands[0]}
			h := t.StartCtx(ctx, obj, p, 0, obj.Size)
			t.Wait(h)
			r := h.Result()
			return core.Outcome{Object: obj, Candidates: cands, Selected: p, Start: r.Start, End: r.End, Err: r.Err}
		}
	}

	raceTrace, raceRecs := sampled(race)
	forcedTrace, forcedRecs := sampled(forced)
	if !reflect.DeepEqual(raceRecs, RunCampaign(spec).Records) {
		t.Fatal("the sampled race's records differ from the nil Select's")
	}
	if len(raceTrace) != spec.Transfers || len(forcedTrace) != spec.Transfers {
		t.Fatalf("sampled %d and %d rounds, want %d", len(raceTrace), len(forcedTrace), spec.Transfers)
	}
	differ := 0
	for i := range raceTrace {
		if raceRecs[i].Time != forcedRecs[i].Time {
			t.Errorf("round %d starts at %v racing, %v forced", i, raceRecs[i].Time, forcedRecs[i].Time)
		}
		for j := range raceTrace[i] {
			if raceTrace[i][j] != forcedTrace[i][j] {
				differ++
			}
		}
	}
	if differ > 0 {
		t.Errorf("%d of %d link capacity samples depend on the selecting process", differ, spec.Transfers*len(raceTrace[0]))
	}
	// A process that runs no probes leaves the probe columns at zero.
	for i, r := range forcedRecs {
		if r.Err != nil || r.ProbeDirectTp != 0 || r.ProbeBestTp != 0 || r.SelectedTp <= 0 {
			t.Fatalf("forced round %d: %+v", i, r)
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
	if cfg.Period != 360 {
		t.Fatalf("schedule defaults wrong: %+v", cfg)
	}
	over := Config{ObjectBytes: 123, ProbeBytes: 7, Period: 1}.withDefaults()
	if over.ObjectBytes != 123 || over.ProbeBytes != 7 || over.Period != 1 {
		t.Fatalf("overrides lost: %+v", over)
	}
}
