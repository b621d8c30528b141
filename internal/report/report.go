// Package report renders the experiment results as terminal text: aligned
// tables, horizontal-bar histograms, and line charts, one renderer per
// paper artifact. All output goes to an io.Writer so the CLI, tests, and
// examples share the same rendering.
package report

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/experiment"
	"repro/internal/stats"
)

// Table writes an aligned text table with a header row.
func Table(w io.Writer, headers []string, rows [][]string) {
	widths := make([]int, len(headers))
	for i, h := range headers {
		widths[i] = len(h)
	}
	for _, row := range rows {
		for i, cell := range row {
			if i < len(widths) && len(cell) > widths[i] {
				widths[i] = len(cell)
			}
		}
	}
	line := func(cells []string) {
		parts := make([]string, len(cells))
		for i, c := range cells {
			if i < len(widths) {
				parts[i] = pad(c, widths[i])
			} else {
				parts[i] = c
			}
		}
		fmt.Fprintln(w, "  "+strings.Join(parts, "  "))
	}
	line(headers)
	sep := make([]string, len(headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range rows {
		line(row)
	}
}

func pad(s string, n int) string {
	if len(s) >= n {
		return s
	}
	return s + strings.Repeat(" ", n-len(s))
}

// Histogram renders h as a horizontal bar chart, collapsing empty leading
// and trailing bins and scaling bars to width columns.
func Histogram(w io.Writer, h *stats.Histogram, width int) {
	if width <= 0 {
		width = 50
	}
	lo, hi := 0, len(h.Bins)-1
	for lo < len(h.Bins) && h.Bins[lo] == 0 {
		lo++
	}
	for hi >= 0 && h.Bins[hi] == 0 {
		hi--
	}
	if lo > hi {
		fmt.Fprintln(w, "  (empty histogram)")
		return
	}
	var maxCount int64 = 1
	for _, c := range h.Bins[lo : hi+1] {
		if c > maxCount {
			maxCount = c
		}
	}
	if h.Underflow > 0 {
		fmt.Fprintf(w, "  %9s  %6d\n", "< min", h.Underflow)
	}
	for i := lo; i <= hi; i++ {
		bar := int(h.Bins[i] * int64(width) / maxCount)
		fmt.Fprintf(w, "  %8.1f  %6d  %s\n", h.BinCenter(i), h.Bins[i], strings.Repeat("#", bar))
	}
	if h.Overflow > 0 {
		fmt.Fprintf(w, "  %9s  %6d\n", "> max", h.Overflow)
	}
}

// Line renders an (x, y) series as an ASCII chart with height rows.
func Line(w io.Writer, xs []float64, ys []float64, height int, yLabel string) {
	if len(xs) == 0 || len(xs) != len(ys) {
		fmt.Fprintln(w, "  (no data)")
		return
	}
	if height <= 0 {
		height = 10
	}
	minY, maxY := ys[0], ys[0]
	for _, y := range ys {
		if y < minY {
			minY = y
		}
		if y > maxY {
			maxY = y
		}
	}
	if maxY == minY {
		maxY = minY + 1
	}
	width := len(xs)
	grid := make([][]byte, height)
	for r := range grid {
		grid[r] = []byte(strings.Repeat(" ", width))
	}
	for i, y := range ys {
		r := int((maxY - y) / (maxY - minY) * float64(height-1))
		grid[r][i] = '*'
	}
	fmt.Fprintf(w, "  %s (%.1f .. %.1f)\n", yLabel, minY, maxY)
	for _, row := range grid {
		fmt.Fprintf(w, "  |%s\n", string(row))
	}
	fmt.Fprintf(w, "  +%s\n", strings.Repeat("-", width))
	fmt.Fprintf(w, "  x: %.0f .. %.0f\n", xs[0], xs[len(xs)-1])
}

// Fig1 renders the Figure 1 report.
func Fig1(w io.Writer, r experiment.Fig1Result) {
	fmt.Fprintln(w, "Figure 1 — Histogram of throughput improvements over all clients")
	fmt.Fprintf(w, "  samples=%d  avg=%.1f%%  median=%.1f%%  penalties=%.0f%%  in[0,100]=%.0f%%  utilization=%.0f%%\n",
		r.Summary.N, r.Summary.Mean, r.Summary.Median,
		r.FracNegative*100, r.FracZeroToHundred*100, r.Utilization*100)
	fmt.Fprintln(w, "  paper:      avg=49%  median=37%  penalties=12%  in[0,100]=84%")
	Histogram(w, r.Hist, 50)
	if len(r.Sites) > 0 {
		fmt.Fprintln(w, "  Average improvement per site (paper: 33-49%):")
		for _, s := range r.Sites {
			fmt.Fprintf(w, "    %-10s %6.1f%%\n", s, r.PerSiteAvg[s])
		}
	}
}

// Fig2 renders the per-client histograms.
func Fig2(w io.Writer, r experiment.Fig2Result) {
	fmt.Fprintln(w, "Figure 2 — Per-client improvement histograms")
	for _, c := range r.Clients {
		s := r.Summary[c]
		fmt.Fprintf(w, "  %s: n=%d avg=%.1f%% median=%.1f%%\n", c, s.N, s.Mean, s.Median)
		Histogram(w, r.Hists[c], 40)
	}
}

// Table1 renders the penalty statistics table.
func Table1(w io.Writer, r experiment.Table1Result) {
	fmt.Fprintln(w, "Table I — Penalty statistics (penalty = (direct/selected - 1) x 100)")
	rows := [][]string{}
	for _, row := range []experiment.PenaltyRow{r.All, r.MedLow, r.LowVar} {
		rows = append(rows, []string{
			row.Filter,
			fmt.Sprintf("%.0f%%", row.PenaltyPoints*100),
			fmt.Sprintf("%.0f%%", row.AvgPenalty),
			fmt.Sprintf("%.0f%%", row.StdDev),
			fmt.Sprintf("%.0f%%", row.Max),
		})
	}
	Table(w, []string{"Filter", "Penalty Points", "Avg Penalty", "St.Dev", "Max"}, rows)
	fmt.Fprintf(w, "  paper: All 12%%/290%%/706%%/3840%%, Med-Low 8%%/43%%/71%%/356%%, Low-Var 3%%/12%%/7%%/35%%\n")
	if len(r.HighVarClients) > 0 {
		fmt.Fprintf(w, "  high-variability clients: %s\n", strings.Join(r.HighVarClients, ", "))
	}
}

// Table2 renders the per-client top-3 intermediates.
func Table2(w io.Writer, r experiment.Table2Result) {
	fmt.Fprintln(w, "Table II — Clients and their top three intermediate nodes (utilizations)")
	rows := [][]string{}
	for _, row := range r.Rows {
		cells := []string{row.Client}
		for _, u := range row.Top {
			cells = append(cells, fmt.Sprintf("%s (%.0f%%)", u.Inter, u.Utilization*100))
		}
		for len(cells) < 4 {
			cells = append(cells, "-")
		}
		rows = append(rows, cells)
	}
	Table(w, []string{"Client", "First", "Second", "Third"}, rows)

	type ov struct {
		name  string
		count int
	}
	var ovs []ov
	for n, c := range r.OverlapCount {
		ovs = append(ovs, ov{n, c})
	}
	sort.Slice(ovs, func(i, j int) bool {
		if ovs[i].count != ovs[j].count {
			return ovs[i].count > ovs[j].count
		}
		return ovs[i].name < ovs[j].name
	})
	fmt.Fprint(w, "  most-shared intermediates:")
	for i, o := range ovs {
		if i == 5 {
			break
		}
		fmt.Fprintf(w, " %s(%d)", o.name, o.count)
	}
	fmt.Fprintln(w)
}

// Fig3 renders the improvement-vs-throughput trends.
func Fig3(w io.Writer, r experiment.Fig3Result) {
	fmt.Fprintln(w, "Figure 3 — Improvement vs. direct-path throughput (top-3 intermediates per client)")
	fmt.Fprintf(w, "  mean OLS slope %.1f %%/Mbps across %d clients; %.0f%% of clients trend downward\n",
		r.MeanSlope, len(r.Clients), r.FractionNegative*100)
	fmt.Fprintln(w, "  paper: downward trends for all shown clients")
	rows := [][]string{}
	for _, c := range r.Clients {
		rows = append(rows, []string{
			c.Client,
			fmt.Sprintf("%d", len(c.Points)),
			fmt.Sprintf("%.1f", c.Slope),
			fmt.Sprintf("%.2f", c.R2),
		})
	}
	Table(w, []string{"Client", "Points", "Slope %/Mbps", "R^2"}, rows)
}

// Fig4 renders the indirect-throughput-over-time stationarity report.
func Fig4(w io.Writer, r experiment.Fig4Result) {
	fmt.Fprintln(w, "Figure 4 — Indirect path throughput vs. time")
	fmt.Fprintf(w, "  mean |trend| = %.1f%% of mean per hour (paper: no discernable trend)\n", r.MeanAbsSlopePct)
	rows := [][]string{}
	for _, s := range r.Series {
		rows = append(rows, []string{
			s.Client,
			fmt.Sprintf("%d", len(s.Tp)),
			fmt.Sprintf("%+.1f", s.SlopePerHourPct),
			fmt.Sprintf("%d", s.JumpCount),
		})
	}
	Table(w, []string{"Client", "Samples", "Trend %/hr", "Jumps"}, rows)
}

// Fig5 renders the intermediate utilization statistics.
func Fig5(w io.Writer, r experiment.Fig5Result) {
	fmt.Fprintln(w, "Figure 5 — Intermediate node utilization across all clients")
	fmt.Fprintf(w, "  overall average utilization = %.1f%% (paper: 45%%)\n", r.OverallAvg)
	rows := [][]string{}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Inter,
			fmt.Sprintf("%.1f", row.Average),
			fmt.Sprintf("%.1f", row.Stdev),
			fmt.Sprintf("%.1f", row.RMS),
		})
	}
	Table(w, []string{"Intermediate", "Average %", "Stdev", "RMS"}, rows)
}

// Fig6 renders the random-set-size sweep.
func Fig6(w io.Writer, r experiment.Fig6Result) {
	fmt.Fprintln(w, "Figure 6 — Avg. throughput improvement vs. random set size")
	for _, c := range r.Curves {
		fmt.Fprintf(w, "  %s (knee at %d nodes; paper: ~10 of 35):\n", c.Client, c.KneeSize())
		xs := make([]float64, len(c.Sizes))
		for i, s := range c.Sizes {
			xs[i] = float64(s)
		}
		Line(w, xs, c.AvgImprovement, 8, "avg improvement %")
		for i, s := range c.Sizes {
			ci := ""
			if i < len(c.ImprovementCI) && c.ImprovementCI[i].Resample > 0 {
				ci = fmt.Sprintf("  [%.1f, %.1f]", c.ImprovementCI[i].Lo, c.ImprovementCI[i].Hi)
			}
			fmt.Fprintf(w, "    k=%-3d avg=%6.1f%%  util=%.0f%%%s\n", s, c.AvgImprovement[i], c.Utilization[i]*100, ci)
		}
	}
}

// Table3 renders the utilization-vs-improvement correlation table.
func Table3(w io.Writer, r experiment.Table3Result) {
	fmt.Fprintf(w, "Table III — Intermediate utilizations and improvements (%s)\n", r.Client)
	fmt.Fprintf(w, "  Pearson r=%.2f  Spearman rho=%.2f (paper: positive, imperfect)\n", r.PearsonR, r.SpearmanR)
	rows := [][]string{}
	for _, row := range r.Rows {
		rows = append(rows, []string{
			row.Inter,
			fmt.Sprintf("%.1f", row.Utilization),
			fmt.Sprintf("%.1f", row.Improvement),
			fmt.Sprintf("%d/%d", row.Chosen, row.Offered),
		})
	}
	Table(w, []string{"Node", "Utilization %", "Improvement %", "Chosen/Offered"}, rows)
}

// Ablation renders one ablation sweep.
func Ablation(w io.Writer, title string, pts []experiment.AblationPoint) {
	fmt.Fprintln(w, "Ablation — "+title)
	rows := [][]string{}
	for _, p := range pts {
		rows = append(rows, []string{
			p.Label,
			fmt.Sprintf("%.1f", p.AvgImprovement),
			fmt.Sprintf("%.0f%%", p.Utilization*100),
			fmt.Sprintf("%.0f%%", p.PenaltyFrac*100),
		})
	}
	Table(w, []string{"Config", "Avg Improvement %", "Utilization", "Penalties"}, rows)
}

// Adaptive renders the one-shot vs adaptive-downloader comparison.
func Adaptive(w io.Writer, results []experiment.AdaptiveResult) {
	fmt.Fprintln(w, "Extension — one-shot selection vs adaptive mid-transfer switching")
	rows := [][]string{}
	for _, r := range results {
		rows = append(rows, []string{
			r.Client,
			fmt.Sprintf("%.2f", r.OneShot/1e6),
			fmt.Sprintf("%.2f", r.Adaptive/1e6),
			fmt.Sprintf("%.2f", r.OneShotCV),
			fmt.Sprintf("%.2f", r.AdaptiveCV),
			fmt.Sprintf("%.2f", r.MeanSwitches),
		})
	}
	Table(w, []string{"Client", "One-shot Mb/s", "Adaptive Mb/s", "One-shot CV", "Adaptive CV", "Switches/round"}, rows)
	fmt.Fprintln(w, "  paper (conclusions): indirect routing can also decrease throughput variability")
}

// SeedSweep renders the seed-robustness report.
func SeedSweep(w io.Writer, r experiment.SeedSweepResult) {
	fmt.Fprintln(w, "Robustness — Section 3 headline statistics across seeds")
	rows := [][]string{}
	for _, pt := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%d", pt.Seed),
			fmt.Sprintf("%.1f", pt.AvgImprovement),
			fmt.Sprintf("%.1f", pt.MedianImprovement),
			fmt.Sprintf("%.0f%%", pt.PenaltyFrac*100),
			fmt.Sprintf("%.0f%%", pt.Utilization*100),
			fmt.Sprintf("%d", pt.Samples),
		})
	}
	Table(w, []string{"Seed", "Avg Imp %", "Median %", "Penalties", "Utilization", "Samples"}, rows)
	fmt.Fprintf(w, "  across seeds: avg %.1f±%.1f  median %.1f±%.1f  penalties %.0f±%.0f%%  utilization %.0f±%.0f%%\n",
		r.AvgMean, r.AvgStd, r.MedianMean, r.MedianStd,
		r.PenaltyMean*100, r.PenaltyStd*100, r.UtilMean*100, r.UtilStd*100)
	fmt.Fprintf(w, "  pairwise KS over improvement distributions: max D=%.3f, min p=%.3f\n",
		r.MaxKSD, r.MinKSPValue)
}

// Monitored renders the probing-vs-monitoring comparison.
func Monitored(w io.Writer, results []experiment.MonitoredResult) {
	fmt.Fprintln(w, "Extension — in-band probing vs background monitoring (RON-style)")
	rows := [][]string{}
	for _, r := range results {
		rows = append(rows, []string{
			r.Client,
			fmt.Sprintf("%.1f", r.ProbingAvg),
			fmt.Sprintf("%.1f", r.MonitoredAvg),
			fmt.Sprintf("%.0f%%", r.ProbingPenalties*100),
			fmt.Sprintf("%.0f%%", r.MonitoredPenalties*100),
			fmt.Sprintf("%d/%d", r.Disagreements, r.Rounds),
		})
	}
	Table(w, []string{"Client", "Probing Imp %", "Monitored Imp %", "Probing Pen", "Monitored Pen", "Disagree"}, rows)
	fmt.Fprintln(w, "  probing pays a per-transfer race for fresh data; monitoring acts instantly on a table")
}

// Multipath renders the selection-vs-striping comparison.
func Multipath(w io.Writer, results []experiment.MultipathResult) {
	fmt.Fprintln(w, "Extension — single-path selection vs multipath striping (Bullet-style)")
	rows := [][]string{}
	for _, r := range results {
		shared := ""
		if r.SharedBottleneck {
			shared = "yes"
		}
		rows = append(rows, []string{
			r.Client,
			fmt.Sprintf("%.1f", r.SelectAvg),
			fmt.Sprintf("%.1f", r.StripeAvg),
			fmt.Sprintf("%.0f%%", r.StripeSpread*100),
			shared,
		})
	}
	Table(w, []string{"Client", "Selection Imp %", "Striping Imp %", "Relay Share", "Shared Bottleneck"}, rows)
	fmt.Fprintln(w, "  striping aggregates path bandwidth until the client's access link binds")
}

// Validate renders the model-validation sweep.
func Validate(w io.Writer, r experiment.ValidateResult) {
	fmt.Fprintln(w, "Validation — fluid TCP model vs packet-level TCP Reno")
	rows := [][]string{}
	for _, p := range r.Points {
		rows = append(rows, []string{
			fmt.Sprintf("%.0f", p.BottleneckMbps),
			fmt.Sprintf("%.0f", p.RTTms),
			fmt.Sprintf("%d", p.Bytes),
			fmt.Sprintf("%.2f", p.FluidSeconds),
			fmt.Sprintf("%.2f", p.PacketSeconds),
			fmt.Sprintf("%.2f", p.Ratio),
			p.Note,
		})
	}
	Table(w, []string{"Mb/s", "RTT ms", "Bytes", "Fluid s", "Packet s", "Ratio", "Note"}, rows)
	fmt.Fprintf(w, "  timing ratios within [%.2f, %.2f]; Jain fairness: 2 flows %.3f, 4 flows %.3f\n",
		r.RatioMin, r.RatioMax, r.Fairness2, r.Fairness4)
	fmt.Fprintln(w, "  (the evaluation's fluid simulator assumes these hold)")
}

// HealthRank renders the health-ranked vs random candidate-set
// comparison.
func HealthRank(w io.Writer, r experiment.HealthRankResult) {
	fmt.Fprintf(w, "Extension — registry health-ranked K=%d vs uniform random K=%d (%s)\n", r.K, r.K, r.Client)
	rows := [][]string{{"health-ranked", fmt.Sprintf("%.1f", r.RankedAvg)}}
	for i, avg := range r.RandomAvgs {
		rows = append(rows, []string{fmt.Sprintf("random draw %d", i+1), fmt.Sprintf("%.1f", avg)})
	}
	rows = append(rows, []string{"random mean", fmt.Sprintf("%.1f", r.RandomAvg)})
	Table(w, []string{"Candidate set", "Improvement %"}, rows)
	fmt.Fprintf(w, "  ranked set: %v\n", r.Ranked)
	fmt.Fprintln(w, "  telemetry concentrates the probe budget on recently-delivering paths")
}

// CacheEgress renders the relay-cache origin-egress comparison.
func CacheEgress(w io.Writer, r experiment.CacheEgressResult) {
	fmt.Fprintf(w, "Extension — relay cache origin egress (%d clients x %d objects x %d KB, live loopback TCP)\n",
		r.Clients, r.Objects, r.ObjectSize>>10)
	Table(w, []string{"Relay", "Origin egress KB"}, [][]string{
		{"no cache", fmt.Sprintf("%d", r.BaselineEgress>>10)},
		{"cached", fmt.Sprintf("%d", r.CachedEgress>>10)},
	})
	s := r.CacheStats
	fmt.Fprintf(w, "  egress reduction %.1fx; cache: %d hits, %d shared fills, %d fills, hit rate %.2f, warmth %.2f\n",
		r.Reduction, s.Hits, s.SharedFills, s.Fills, s.HitRate(), s.Warmth())
	fmt.Fprintln(w, "  each object leaves the origin once; every later request is served from relay memory")
}

// Chaos renders the chaos campaign scorecard: one row per injected
// fault class, with the health verdict the monitor converged to and the
// safety counters that must stay zero.
func Chaos(w io.Writer, r experiment.ChaosResult) {
	fmt.Fprintf(w, "Extension — chaos campaign (seed %d, %d fault classes: fluid sim + live loopback TCP)\n",
		r.Seed, len(r.Entries))
	rows := [][]string{}
	for _, e := range r.Entries {
		verdict := e.Verdict
		if !e.VerdictOK {
			verdict += " (WRONG)"
		}
		burn, bundles := "-", "-"
		if e.Mode == "live" {
			burn = fmt.Sprintf("%v", e.BurnAlert)
			bundles = fmt.Sprintf("%d", e.Bundles)
		}
		rows = append(rows, []string{
			e.Class, e.Mode,
			fmt.Sprintf("%d", e.Transfers), fmt.Sprintf("%d", e.Failures),
			verdict, fmt.Sprintf("%v", e.Recovered), burn, bundles,
			fmt.Sprintf("%.2f", e.MaxTransfer),
			fmt.Sprintf("%d", e.DeadlineExceeded), fmt.Sprintf("%d", e.CorruptDeliveries),
		})
	}
	Table(w, []string{"Fault", "Mode", "Xfers", "Fail", "Verdict", "Recovered", "Burn", "Bundles", "Max s", "Over-DL", "Corrupt"}, rows)
	fmt.Fprintf(w, "  verdicts ok: %v; recovered: %v; deadline overruns %d; corrupt cache serves %d\n",
		r.AllVerdictsOK, r.AllRecovered, r.TotalDeadlineExceeded, r.TotalCorruptDeliveries)
	fmt.Fprintln(w, "  every fault class must degrade the verdict it should, heal when lifted, and never wedge or corrupt a transfer")
	fmt.Fprintln(w, "  hard-failing live classes each capture exactly one rate-limited flight-recorder debug bundle")
}
