// Benchmarks that regenerate every table and figure of the paper's
// evaluation, plus the ablations of DESIGN.md §5. Each benchmark runs a
// reduced-scale version of the corresponding experiment per iteration and
// reports the experiment's headline number as a custom metric, so
// `go test -bench=.` both times the harness and reproduces the shapes.
//
// cmd/indirectlab runs the same drivers at paper scale.
package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/experiment"
	"repro/internal/relay"
)

// benchSeed keeps all benchmarks on one deterministic scenario.
const benchSeed = 42

func benchStudy(transfers int) *experiment.StudyResult {
	return experiment.RunStudy(experiment.StudyParams{
		Seed:               benchSeed,
		TransfersPerClient: transfers,
		Servers:            []string{"eBay"},
	})
}

// BenchmarkFig1ImprovementHistogram regenerates Figure 1: the improvement
// histogram over all clients (paper: avg 49%, median 37%, 12% penalties).
func BenchmarkFig1ImprovementHistogram(b *testing.B) {
	var avg, med float64
	for i := 0; i < b.N; i++ {
		f1 := experiment.Fig1(benchStudy(20))
		avg, med = f1.Summary.Mean, f1.Summary.Median
	}
	b.ReportMetric(avg, "avg-improvement-%")
	b.ReportMetric(med, "median-improvement-%")
}

// BenchmarkFig2PerClientHistograms regenerates Figure 2: per-client
// improvement histograms.
func BenchmarkFig2PerClientHistograms(b *testing.B) {
	study := benchStudy(20)
	b.ResetTimer()
	var clients int
	for i := 0; i < b.N; i++ {
		f2 := experiment.Fig2(study, nil)
		clients = len(f2.Clients)
	}
	b.ReportMetric(float64(clients), "clients")
}

// BenchmarkTable1PenaltyStats regenerates Table I: penalty statistics
// under the paper's two filters.
func BenchmarkTable1PenaltyStats(b *testing.B) {
	study := benchStudy(20)
	b.ResetTimer()
	var all, lowVar float64
	for i := 0; i < b.N; i++ {
		t1 := experiment.Table1(study)
		all, lowVar = t1.All.PenaltyPoints, t1.LowVar.PenaltyPoints
	}
	b.ReportMetric(all*100, "penalty-points-all-%")
	b.ReportMetric(lowVar*100, "penalty-points-lowvar-%")
}

func benchPairStudy() *experiment.PairStudyResult {
	return experiment.RunPairStudy(experiment.PairStudyParams{
		Seed:             benchSeed,
		TransfersPerPair: 6,
	})
}

// BenchmarkTable2TopIntermediates regenerates Table II: each client's top
// three intermediates by utilization.
func BenchmarkTable2TopIntermediates(b *testing.B) {
	var overlap int
	for i := 0; i < b.N; i++ {
		t2 := experiment.Table2(benchPairStudy())
		overlap = 0
		for _, c := range t2.OverlapCount {
			if c > overlap {
				overlap = c
			}
		}
	}
	b.ReportMetric(float64(overlap), "max-top3-overlap")
}

// BenchmarkFig3ImprovementVsThroughput regenerates Figure 3: the inverse
// relation between improvement and direct-path throughput.
func BenchmarkFig3ImprovementVsThroughput(b *testing.B) {
	ps := benchPairStudy()
	b.ResetTimer()
	var slope float64
	for i := 0; i < b.N; i++ {
		slope = experiment.Fig3(ps).MeanSlope
	}
	b.ReportMetric(slope, "mean-slope-%/Mbps")
}

// BenchmarkFig4IndirectOverTime regenerates Figure 4: indirect-path
// throughput stationarity.
func BenchmarkFig4IndirectOverTime(b *testing.B) {
	study := benchStudy(20)
	b.ResetTimer()
	var trend float64
	for i := 0; i < b.N; i++ {
		trend = experiment.Fig4(study, 5).MeanAbsSlopePct
	}
	b.ReportMetric(trend, "mean-abs-trend-%/hr")
}

// BenchmarkFig5UtilizationStats regenerates Figure 5: intermediate-node
// utilization statistics (paper: 45% average).
func BenchmarkFig5UtilizationStats(b *testing.B) {
	ps := benchPairStudy()
	b.ResetTimer()
	var overall float64
	for i := 0; i < b.N; i++ {
		overall = experiment.Fig5(ps).OverallAvg
	}
	b.ReportMetric(overall, "overall-utilization-%")
}

// BenchmarkFig6RandomSetSweep regenerates Figure 6: average improvement
// vs. random-set size (paper: levels off at ~10 of 35).
func BenchmarkFig6RandomSetSweep(b *testing.B) {
	var knee float64
	for i := 0; i < b.N; i++ {
		f6 := experiment.Fig6(experiment.Fig6Params{
			Seed:             benchSeed,
			SetSizes:         []int{1, 3, 10, 22, 35},
			TransfersPerSize: 30,
		})
		knee = 0
		for _, c := range f6.Curves {
			knee += float64(c.KneeSize())
		}
		knee /= float64(len(f6.Curves))
	}
	b.ReportMetric(knee, "mean-knee-size")
}

// BenchmarkTable3UtilizationVsImprovement regenerates Table III: the
// utilization↔improvement correlation for the Duke client.
func BenchmarkTable3UtilizationVsImprovement(b *testing.B) {
	var rho float64
	for i := 0; i < b.N; i++ {
		rho = experiment.Table3(experiment.Table3Params{
			Seed:   benchSeed,
			Rounds: 120,
		}).SpearmanR
	}
	b.ReportMetric(rho, "spearman-rho")
}

// --- Ablations (DESIGN.md §5) ---

// BenchmarkAblationProbeSize sweeps the probe size x around the paper's
// 100 KB choice.
func BenchmarkAblationProbeSize(b *testing.B) {
	var best float64
	for i := 0; i < b.N; i++ {
		pts := experiment.AblateProbeSize(experiment.AblationParams{
			Seed: benchSeed, Rounds: 15,
		}, []int64{25_000, 100_000, 400_000})
		best = pts[1].AvgImprovement // the 100 KB point
	}
	b.ReportMetric(best, "avg-improvement-100KB-%")
}

// BenchmarkAblationSelectionRule compares first-finished and
// max-throughput probe selection.
func BenchmarkAblationSelectionRule(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		pts := experiment.AblateSelectionRule(experiment.AblationParams{
			Seed: benchSeed, Rounds: 15,
		})
		delta = pts[0].AvgImprovement - pts[1].AvgImprovement
	}
	b.ReportMetric(delta, "firstfinished-minus-maxtp-%")
}

// BenchmarkAblationWeightedSelection compares uniform and
// utilization-weighted candidate sets (the paper's Section 6 proposal).
func BenchmarkAblationWeightedSelection(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		pts := experiment.AblateWeightedPolicy(experiment.AblationParams{
			Seed: benchSeed, Rounds: 40,
		}, 5)
		delta = pts[1].AvgImprovement - pts[0].AvgImprovement
	}
	b.ReportMetric(delta, "weighted-minus-uniform-%")
}

// BenchmarkAblationSharedBottleneck measures how shared client-access
// bottlenecks erode indirect-routing gains.
func BenchmarkAblationSharedBottleneck(b *testing.B) {
	var erosion float64
	for i := 0; i < b.N; i++ {
		pts := experiment.AblateSharedBottleneck(experiment.AblationParams{
			Seed: benchSeed, Rounds: 15,
		}, []float64{0.0001, 0.999})
		erosion = pts[0].AvgImprovement - pts[1].AvgImprovement
	}
	b.ReportMetric(erosion, "improvement-erosion-%")
}

// BenchmarkExtensionAdaptiveDownloader measures the adaptive-downloader
// comparison (the paper's closing variability-reduction suggestion).
func BenchmarkExtensionAdaptiveDownloader(b *testing.B) {
	var dcv float64
	for i := 0; i < b.N; i++ {
		results := experiment.RunAdaptive(experiment.AdaptiveParams{
			Seed: benchSeed, Rounds: 20,
		})
		var one, ad float64
		for _, r := range results {
			one += r.OneShotCV
			ad += r.AdaptiveCV
		}
		if n := float64(len(results)); n > 0 {
			dcv = (one - ad) / n
		}
	}
	b.ReportMetric(dcv, "cv-reduction")
}

// BenchmarkExtensionMonitoredSelection compares in-band probing with
// RON-style background monitoring.
func BenchmarkExtensionMonitoredSelection(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		results := experiment.RunMonitored(experiment.MonitoredParams{
			Seed: benchSeed, Rounds: 20,
		})
		var probing, monitored float64
		for _, r := range results {
			probing += r.ProbingAvg
			monitored += r.MonitoredAvg
		}
		if n := float64(len(results)); n > 0 {
			delta = (probing - monitored) / n
		}
	}
	b.ReportMetric(delta, "probing-minus-monitored-%")
}

// BenchmarkExtensionMultipathStriping compares single-path selection with
// Bullet-style multipath striping.
func BenchmarkExtensionMultipathStriping(b *testing.B) {
	var delta float64
	for i := 0; i < b.N; i++ {
		results := experiment.RunMultipath(experiment.MultipathParams{
			Seed: benchSeed, Rounds: 15,
		})
		var sel, str float64
		for _, r := range results {
			sel += r.SelectAvg
			str += r.StripeAvg
		}
		if n := float64(len(results)); n > 0 {
			delta = (str - sel) / n
		}
	}
	b.ReportMetric(delta, "striping-minus-selection-%")
}

// BenchmarkClientLoopbackStream times a full facade-level operation
// (probe, select, stream the remainder) against a real loopback origin,
// with content verification on. Its allocation figure is the streaming
// pipeline's end-to-end contract: per-operation allocations must not
// scale with object size, because every body flows through a recycled
// fixed-size buffer rather than being materialized.
func BenchmarkClientLoopbackStream(b *testing.B) {
	origin := relay.NewOriginServer()
	origin.Put("bench.bin", 8<<20)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer ol.Close()

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Verify:  true,
	}
	c := repro.New(tr, repro.WithProbeBytes(100_000))
	defer tr.Close()
	obj := repro.Object{Server: "origin", Name: "bench.bin", Size: 8 << 20}

	b.SetBytes(obj.Size)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := c.SelectAndFetch(context.Background(), obj, nil); out.Err != nil {
			b.Fatal(out.Err)
		}
	}
}
