package experiment

import (
	"math"
	"sort"

	"repro/internal/stats"
)

// Fig4Series is one client's indirect-path throughput time series.
type Fig4Series struct {
	Client string
	Times  []float64 // virtual seconds
	Tp     []float64 // bits/sec of the selected indirect transfer

	// SlopePerHourPct is the OLS trend expressed as percent of the mean
	// throughput per hour — the paper's Figure 4 shows "no discernable
	// uptrend or downtrend", i.e. values near zero.
	SlopePerHourPct float64

	// JumpCount is the number of successive samples differing by more
	// than 50% of the mean — the "few small jumps" the paper observes.
	JumpCount int
}

// Fig4Result reproduces Figure 4: indirect path throughput vs. time for
// each client with enough indirect-selected rounds.
type Fig4Result struct {
	Series []Fig4Series

	// MeanAbsSlopePct is the across-client mean |trend| in %/hour; small
	// values support the paper's stationarity claim.
	MeanAbsSlopePct float64
}

// Fig4 extracts indirect-path throughput over time from the Section 3
// dataset. Clients with fewer than minSamples indirect rounds are skipped
// (5 when minSamples <= 0).
func Fig4(study *StudyResult, minSamples int) Fig4Result {
	if minSamples <= 0 {
		minSamples = 5
	}
	clients := make([]string, 0, len(study.PerClient))
	for c := range study.PerClient {
		clients = append(clients, c)
	}
	sort.Strings(clients)

	var res Fig4Result
	var absSum float64
	for _, c := range clients {
		var s Fig4Series
		s.Client = c
		for _, rec := range study.PerClient[c] {
			if rec.Indirect() {
				s.Times = append(s.Times, rec.Time)
				s.Tp = append(s.Tp, rec.SelectedTp)
			}
		}
		if len(s.Tp) < minSamples {
			continue
		}
		mean := stats.Mean(s.Tp)
		if mean > 0 {
			s.SlopePerHourPct = stats.TrendSlopePerHour(s.Times, s.Tp) / mean * 100
			for i := 1; i < len(s.Tp); i++ {
				if math.Abs(s.Tp[i]-s.Tp[i-1]) > 0.5*mean {
					s.JumpCount++
				}
			}
		}
		absSum += math.Abs(s.SlopePerHourPct)
		res.Series = append(res.Series, s)
	}
	if len(res.Series) > 0 {
		res.MeanAbsSlopePct = absSum / float64(len(res.Series))
	}
	return res
}
