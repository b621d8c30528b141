// Command indirectlab reproduces the evaluation of "A Performance
// Analysis of Indirect Routing" (IPPS 2007) on the simulated PlanetLab
// topology: one subcommand per table and figure, plus the ablations.
//
// Usage:
//
//	indirectlab -exp all                 # everything, reduced scale
//	indirectlab -exp fig1 -scale paper   # Figure 1 at paper scale
//	indirectlab -exp table3 -seed 7
//
// Scales: "quick" (CI-sized), "default", and "paper" (the paper's
// transfer counts: 100 per client for Section 3, 720 per configuration
// for Section 4).
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"time"

	"repro/internal/experiment"
	"repro/internal/report"
	"repro/internal/topo"
	"repro/internal/traceio"
)

type scale struct {
	studyTransfers int
	pairTransfers  int
	fig6Transfers  int
	fig6Sizes      []int
	table3Rounds   int
	ablateRounds   int
	chaosTransfers int
	chaosSimXfers  int
}

var scales = map[string]scale{
	"quick": {
		studyTransfers: 20,
		pairTransfers:  8,
		fig6Transfers:  40,
		fig6Sizes:      []int{1, 3, 10, 22, 35},
		table3Rounds:   150,
		ablateRounds:   30,
		chaosTransfers: 8,
		chaosSimXfers:  10,
	},
	"default": {
		studyTransfers: 60,
		pairTransfers:  25,
		fig6Transfers:  150,
		fig6Sizes:      []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 35},
		table3Rounds:   500,
		ablateRounds:   80,
		chaosTransfers: 16,
		chaosSimXfers:  24,
	},
	"paper": {
		studyTransfers: 100,
		pairTransfers:  40,
		fig6Transfers:  720,
		fig6Sizes:      []int{1, 2, 3, 4, 5, 6, 8, 10, 12, 15, 20, 25, 30, 35},
		table3Rounds:   720,
		ablateRounds:   150,
		chaosTransfers: 32,
		chaosSimXfers:  48,
	},
}

// expIDs is every value -exp accepts. "all" runs the ids up to and
// including multipath; the rest run only when named.
var expIDs = []string{"fig1", "fig2", "table1", "table2", "fig3", "fig4", "fig5", "fig6", "table3",
	"ablate", "adaptive", "monitor", "healthrank", "multipath",
	"seeds", "validate", "cacheegress", "chaos", "topo", "all"}

// parseExps splits a comma-separated -exp value into the set of ids to
// run, rejecting any id that is not in expIDs.
func parseExps(s string) (map[string]bool, error) {
	want := map[string]bool{}
	for _, e := range strings.Split(s, ",") {
		e = strings.TrimSpace(e)
		if !slices.Contains(expIDs, e) {
			return nil, fmt.Errorf("unknown experiment %q (%s)", e, strings.Join(expIDs, ", "))
		}
		want[e] = true
	}
	return want, nil
}

func main() { os.Exit(lab(os.Args[1:], os.Stdout, os.Stderr)) }

// lab is the command: it parses args, runs the experiments they name and
// renders their report on w. Progress and diagnostics go to stderr. The
// report is a function of the flags alone, which is what
// TestQuickReportGolden pins.
func lab(args []string, w, stderr io.Writer) int {
	fs := flag.NewFlagSet("indirectlab", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		expFlag      = fs.String("exp", "all", "experiment ids, comma-separated: "+strings.Join(expIDs, ","))
		seed         = fs.Uint64("seed", 42, "study seed (scenario + workloads)")
		scaleFlag    = fs.String("scale", "default", "workload scale: quick, default, paper")
		workers      = fs.Int("workers", 0, "parallel campaign workers (0 = GOMAXPROCS)")
		outTrace     = fs.String("out", "", "archive the Section 3 study records to this JSONL file")
		outCSV       = fs.String("csv", "", "export the Section 3 study records to this CSV file")
		plotDir      = fs.String("plotdata", "", "write gnuplot-ready TSV series for each produced figure/table into this directory")
		scenarioPath = fs.String("scenario", "", "JSON scenario config (see topo.ScenarioConfig); used by -exp topo")
		chaosJSON    = fs.String("chaos-json", "", "write the chaos campaign result as JSON to this file")
		chaosBundles = fs.String("chaos-bundle-dir", "", "persist each live fault class's anomaly debug bundles under this directory (CI artifact)")
	)
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0
		}
		return 2
	}
	run := func(name string, fn func()) {
		fmt.Fprintf(stderr, "running %s...", name)
		start := time.Now()
		fn()
		fmt.Fprintf(stderr, " done (%v)\n", time.Since(start).Round(time.Millisecond))
	}

	plot := func(name string, fn func(*os.File) error) {
		if *plotDir == "" {
			return
		}
		if err := os.MkdirAll(*plotDir, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "plotdata: %v\n", err)
			os.Exit(1)
		}
		archive(filepath.Join(*plotDir, name), fn)
	}

	sc, ok := scales[*scaleFlag]
	if !ok {
		fmt.Fprintf(stderr, "unknown scale %q (quick, default, paper)\n", *scaleFlag)
		return 2
	}

	want, err := parseExps(*expFlag)
	if err != nil {
		fmt.Fprintln(stderr, err)
		return 2
	}
	all := want["all"]

	var study *experiment.StudyResult
	needStudy := all || want["fig1"] || want["fig2"] || want["table1"] || want["fig4"] ||
		*outTrace != "" || *outCSV != ""
	if needStudy {
		run("section 3 study", func() {
			study = experiment.RunStudy(experiment.StudyParams{
				Seed:               *seed,
				TransfersPerClient: sc.studyTransfers,
				Workers:            *workers,
			})
		})
	}
	if *outTrace != "" {
		archive(*outTrace, func(f *os.File) error {
			return traceio.Write(f, fmt.Sprintf("indirectlab seed=%d scale=%s", *seed, *scaleFlag), study.Records)
		})
	}
	if *outCSV != "" {
		archive(*outCSV, func(f *os.File) error {
			return traceio.WriteCSV(f, study.Records)
		})
	}
	var pairs *experiment.PairStudyResult
	needPairs := all || want["table2"] || want["fig3"] || want["fig5"]
	if needPairs {
		run("pair study", func() {
			pairs = experiment.RunPairStudy(experiment.PairStudyParams{
				Seed:             *seed,
				TransfersPerPair: sc.pairTransfers,
				Workers:          *workers,
			})
		})
	}

	if all || want["fig1"] {
		f1 := experiment.Fig1(study)
		report.Fig1(w, f1)
		fmt.Fprintln(w)
		plot("fig1.tsv", func(f *os.File) error { return report.Fig1Data(f, f1) })
	}
	if all || want["fig2"] {
		report.Fig2(w, experiment.Fig2(study, nil))
		fmt.Fprintln(w)
	}
	if all || want["table1"] {
		t1 := experiment.Table1(study)
		report.Table1(w, t1)
		fmt.Fprintln(w)
		plot("table1.tsv", func(f *os.File) error { return report.Table1Data(f, t1) })
	}
	if all || want["table2"] {
		t2 := experiment.Table2(pairs)
		report.Table2(w, t2)
		fmt.Fprintln(w)
		plot("table2.tsv", func(f *os.File) error { return report.Table2Data(f, t2) })
	}
	if all || want["fig3"] {
		f3 := experiment.Fig3(pairs)
		report.Fig3(w, f3)
		fmt.Fprintln(w)
		plot("fig3.tsv", func(f *os.File) error { return report.Fig3Data(f, f3) })
	}
	if all || want["fig4"] {
		f4 := experiment.Fig4(study, 0)
		report.Fig4(w, f4)
		fmt.Fprintln(w)
		plot("fig4.tsv", func(f *os.File) error { return report.Fig4Data(f, f4) })
	}
	if all || want["fig5"] {
		f5 := experiment.Fig5(pairs)
		report.Fig5(w, f5)
		fmt.Fprintln(w)
		plot("fig5.tsv", func(f *os.File) error { return report.Fig5Data(f, f5) })
	}
	if all || want["fig6"] {
		var f6 experiment.Fig6Result
		run("figure 6 sweep", func() {
			f6 = experiment.Fig6(experiment.Fig6Params{
				Seed:             *seed,
				SetSizes:         sc.fig6Sizes,
				TransfersPerSize: sc.fig6Transfers,
				Workers:          *workers,
			})
		})
		report.Fig6(w, f6)
		fmt.Fprintln(w)
		plot("fig6.tsv", func(f *os.File) error { return report.Fig6Data(f, f6) })
	}
	if all || want["table3"] {
		var t3 experiment.Table3Result
		run("table III campaign", func() {
			t3 = experiment.Table3(experiment.Table3Params{
				Seed:   *seed,
				Rounds: sc.table3Rounds,
			})
		})
		report.Table3(w, t3)
		fmt.Fprintln(w)
		plot("table3.tsv", func(f *os.File) error { return report.Table3Data(f, t3) })
	}
	if all || want["ablate"] {
		p := experiment.AblationParams{Seed: *seed, Rounds: sc.ablateRounds, Workers: *workers}
		run("ablations", func() {
			report.Ablation(w, "probe size x (paper: 100 KB)", experiment.AblateProbeSize(p, nil))
			report.Ablation(w, "selection rule", experiment.AblateSelectionRule(p))
			report.Ablation(w, "uniform vs utilization-weighted random set (Section 6)",
				experiment.AblateWeightedPolicy(p, 0))
			report.Ablation(w, "shared-bottleneck fraction", experiment.AblateSharedBottleneck(p, nil))
			report.Ablation(w, "object size (paper: >= 2 MB)", experiment.AblateObjectSize(p, nil))
		})
	}
	if all || want["multipath"] {
		var results []experiment.MultipathResult
		run("multipath comparison", func() {
			results = experiment.RunMultipath(experiment.MultipathParams{
				Seed:    *seed,
				Rounds:  sc.ablateRounds,
				Workers: *workers,
			})
		})
		report.Multipath(w, results)
		fmt.Fprintln(w)
	}
	if all || want["monitor"] {
		var results []experiment.MonitoredResult
		run("monitoring comparison", func() {
			results = experiment.RunMonitored(experiment.MonitoredParams{
				Seed:    *seed,
				Rounds:  sc.ablateRounds,
				Workers: *workers,
			})
		})
		report.Monitored(w, results)
		fmt.Fprintln(w)
	}
	if all || want["healthrank"] {
		var hr experiment.HealthRankResult
		run("health-ranked candidate comparison", func() {
			hr = experiment.RunHealthRank(experiment.HealthRankParams{
				Seed:          *seed,
				EvalTransfers: sc.fig6Transfers,
				Workers:       *workers,
			})
		})
		report.HealthRank(w, hr)
		fmt.Fprintln(w)
	}
	if want["validate"] {
		var vr experiment.ValidateResult
		run("model validation", func() { vr = experiment.Validate() })
		report.Validate(w, vr)
		fmt.Fprintln(w)
	}
	if want["cacheegress"] {
		var ce experiment.CacheEgressResult
		run("relay cache origin egress", func() {
			ce = experiment.RunCacheEgress(experiment.CacheEgressParams{})
		})
		report.CacheEgress(w, ce)
		fmt.Fprintln(w)
	}
	if want["chaos"] {
		var ch experiment.ChaosResult
		run("chaos campaign (fault injection sweep)", func() {
			ch = experiment.RunChaos(experiment.ChaosParams{
				Seed:         *seed,
				Transfers:    sc.chaosTransfers,
				SimTransfers: sc.chaosSimXfers,
				BundleDir:    *chaosBundles,
			})
		})
		report.Chaos(w, ch)
		fmt.Fprintln(w)
		if *chaosJSON != "" {
			archive(*chaosJSON, func(f *os.File) error {
				enc := json.NewEncoder(f)
				enc.SetIndent("", "  ")
				return enc.Encode(ch)
			})
		}
	}
	if want["seeds"] {
		var sw experiment.SeedSweepResult
		run("seed sweep", func() {
			sw = experiment.SeedSweep(experiment.SeedSweepParams{
				TransfersPerClient: sc.studyTransfers,
				Workers:            *workers,
			})
		})
		report.SeedSweep(w, sw)
		fmt.Fprintln(w)
	}
	if want["topo"] {
		var scen *topo.Scenario
		if *scenarioPath != "" {
			f, err := os.Open(*scenarioPath)
			if err != nil {
				fmt.Fprintf(stderr, "scenario: %v\n", err)
				return 1
			}
			cfg, err := topo.LoadConfig(f)
			f.Close()
			if err != nil {
				fmt.Fprintf(stderr, "scenario: %v\n", err)
				return 1
			}
			if cfg.Seed == 0 {
				cfg.Seed = *seed
			}
			if scen, err = cfg.Build(); err != nil {
				fmt.Fprintf(stderr, "scenario: %v\n", err)
				return 1
			}
		} else {
			scen = topo.NewScenario(topo.Params{Seed: *seed})
		}
		scen.Describe(w)
		fmt.Fprintln(w)
	}
	if all || want["adaptive"] {
		var results []experiment.AdaptiveResult
		run("adaptive comparison", func() {
			results = experiment.RunAdaptive(experiment.AdaptiveParams{
				Seed:    *seed,
				Rounds:  sc.ablateRounds,
				Workers: *workers,
			})
		})
		report.Adaptive(w, results)
		fmt.Fprintln(w)
	}
	return 0
}

// archive writes a file via fn, exiting on failure.
func archive(path string, fn func(*os.File) error) {
	f, err := os.Create(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "archive: %v\n", err)
		os.Exit(1)
	}
	defer f.Close()
	if err := fn(f); err != nil {
		fmt.Fprintf(os.Stderr, "archive %s: %v\n", path, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s\n", path)
}
