package experiment

import (
	"sort"

	"repro/internal/core"
	"repro/internal/stats"
	"repro/internal/topo"
)

// PenaltyRow is one row of the paper's Table I: the fraction of rounds
// ending in a penalty and the distribution of penalty magnitudes, where a
// penalty is expressed as how many percent slower the selected path was
// than the direct path ((direct/selected − 1) × 100 — the only reading
// under which the paper's 290%/3840% figures are possible, since the
// improvement metric is bounded below by −100%).
type PenaltyRow struct {
	Filter string

	// Rounds is the number of indirect-selected rounds surviving the
	// filter; PenaltyPoints the fraction of them that were penalties.
	Rounds        int
	PenaltyPoints float64

	// AvgPenalty, StdDev, and Max summarize penalty magnitudes (percent).
	AvgPenalty, StdDev, Max float64
}

// Table1Result reproduces Table I: penalty statistics for all clients,
// after removing High-throughput clients, and after additionally removing
// highly variable Low/Medium clients.
type Table1Result struct {
	All, MedLow, LowVar PenaltyRow

	// HighVarClients lists clients classified as highly variable by the
	// post-hoc CV analysis.
	HighVarClients []string
}

// Table1 computes the penalty analysis from the Section 3 dataset.
func Table1(study *StudyResult) Table1Result {
	var res Table1Result
	for client, cv := range study.ClientCV {
		if cv > highVariabilityCV {
			res.HighVarClients = append(res.HighVarClients, client)
		}
	}
	sort.Strings(res.HighVarClients)
	highVar := make(map[string]bool, len(res.HighVarClients))
	for _, c := range res.HighVarClients {
		highVar[c] = true
	}

	res.All = penaltyRow("All", study.Records, func(Record) bool { return true })
	res.MedLow = penaltyRow("Med/Low Throughput", study.Records, func(r Record) bool {
		return r.Category != topo.High
	})
	res.LowVar = penaltyRow("Low Variability", study.Records, func(r Record) bool {
		return r.Category != topo.High && !highVar[r.Client]
	})
	return res
}

func penaltyRow(name string, recs []Record, keep func(Record) bool) PenaltyRow {
	row := PenaltyRow{Filter: name}
	var penalties []float64
	for _, r := range recs {
		if !r.Indirect() || !keep(r) {
			continue
		}
		row.Rounds++
		if r.Improvement < 0 {
			penalties = append(penalties, core.Penalty(r.SelectedTp, r.DirectTp))
		}
	}
	if row.Rounds > 0 {
		row.PenaltyPoints = float64(len(penalties)) / float64(row.Rounds)
	}
	if len(penalties) > 0 {
		s := stats.Summarize(penalties)
		row.AvgPenalty, row.StdDev, row.Max = s.Mean, s.Std, s.Max
	}
	return row
}
