package experiment

import (
	"repro/internal/stats"
)

// The seed sweep checks that the reproduction's headline numbers are
// properties of the calibrated model, not accidents of one random seed: it
// reruns the Section 3 study across several seeds (fresh scenario AND
// fresh dynamics per seed) and reports the spread of every headline
// statistic, plus pairwise KS tests on the improvement distributions.

// SeedSweepParams configures the sweep.
// It runs seeds 41..45, and each study downloads from the focus server
// only.
type SeedSweepParams struct {
	TransfersPerClient int // default 40
	Workers            int
}

// sweepSeeds are the study seeds the sweep reruns.
var sweepSeeds = []uint64{41, 42, 43, 44, 45}

// SeedPoint is one seed's headline numbers.
type SeedPoint struct {
	Seed              uint64
	AvgImprovement    float64
	MedianImprovement float64
	PenaltyFrac       float64
	Utilization       float64
	Samples           int
}

// SeedSweepResult aggregates the sweep.
type SeedSweepResult struct {
	Points []SeedPoint

	// Avg/Median/Penalty/Utilization summarize the per-seed headline
	// values (mean and standard deviation across seeds).
	AvgMean, AvgStd         float64
	MedianMean, MedianStd   float64
	PenaltyMean, PenaltyStd float64
	UtilMean, UtilStd       float64

	// MaxKSD and MinKSPValue summarize the pairwise KS comparisons of
	// the improvement distributions across seeds: a stable reproduction
	// has small D and non-vanishing p-values.
	MaxKSD      float64
	MinKSPValue float64
}

// SeedSweep reruns the Section 3 study per seed and aggregates.
func SeedSweep(p SeedSweepParams) SeedSweepResult {
	if p.TransfersPerClient == 0 {
		p.TransfersPerClient = 40
	}
	var res SeedSweepResult
	var avgA, medA, penA, utilA stats.Acc
	samples := make([][]float64, 0, len(sweepSeeds))

	for _, seed := range sweepSeeds {
		study := RunStudy(StudyParams{
			Seed:               seed,
			TransfersPerClient: p.TransfersPerClient,
			Servers:            []string{focusServer},
			Workers:            p.Workers,
		})
		f1 := Fig1(study)
		pt := SeedPoint{
			Seed:              seed,
			AvgImprovement:    f1.Summary.Mean,
			MedianImprovement: f1.Summary.Median,
			PenaltyFrac:       f1.FracNegative,
			Utilization:       f1.Utilization,
			Samples:           f1.Summary.N,
		}
		res.Points = append(res.Points, pt)
		avgA.Add(pt.AvgImprovement)
		medA.Add(pt.MedianImprovement)
		penA.Add(pt.PenaltyFrac)
		utilA.Add(pt.Utilization)
		samples = append(samples, Improvements(study.Records))
	}

	res.AvgMean, res.AvgStd = avgA.Mean(), avgA.Std()
	res.MedianMean, res.MedianStd = medA.Mean(), medA.Std()
	res.PenaltyMean, res.PenaltyStd = penA.Mean(), penA.Std()
	res.UtilMean, res.UtilStd = utilA.Mean(), utilA.Std()

	res.MinKSPValue = 1
	for i := 0; i < len(samples); i++ {
		for j := i + 1; j < len(samples); j++ {
			ks := stats.KolmogorovSmirnov(samples[i], samples[j])
			if ks.D > res.MaxKSD {
				res.MaxKSD = ks.D
			}
			if ks.PValue < res.MinKSPValue {
				res.MinKSPValue = ks.PValue
			}
		}
	}
	return res
}
