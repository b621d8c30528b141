// Package traceio writes archives. A campaign's measurement records —
// the equivalent of the paper's two-month measurement logs — go out as
// JSON Lines (a small header line carrying schema metadata, then one
// record per line, stream-appendable) or as CSV for spreadsheet
// analysis; nothing in this repository reads a record archive back.
// Span archives (spans.go) share the header convention and are read
// back, merged across processes.
package traceio

import (
	"bufio"
	"encoding/csv"
	"encoding/json"
	"errors"
	"io"
	"strconv"

	"repro/internal/experiment"
)

// SchemaVersion identifies the record layout; bump on breaking changes.
const SchemaVersion = 1

// Errors surfaced by ReadSpans.
var (
	ErrBadHeader = errors.New("traceio: missing or malformed header")
	ErrBadSchema = errors.New("traceio: unsupported schema version")
)

type header struct {
	Schema  int    `json:"schema"`
	Kind    string `json:"kind"`
	Comment string `json:"comment,omitempty"`
}

// jsonRecord mirrors experiment.Record with stable JSON field names.
// Errors are flattened to strings: traces are for analysis, not
// resumption.
type jsonRecord struct {
	Client        string   `json:"client"`
	Category      string   `json:"category"`
	Server        string   `json:"server"`
	Time          float64  `json:"t"`
	Candidates    []string `json:"candidates,omitempty"`
	Selected      string   `json:"selected,omitempty"`
	DirectTp      float64  `json:"direct_bps"`
	SelectedTp    float64  `json:"selected_bps"`
	ProbeDirectTp float64  `json:"probe_direct_bps,omitempty"`
	ProbeBestTp   float64  `json:"probe_best_bps,omitempty"`
	Improvement   float64  `json:"improvement_pct"`
	Err           string   `json:"err,omitempty"`
}

func toJSON(r experiment.Record) jsonRecord {
	j := jsonRecord{
		Client:        r.Client,
		Category:      r.Category.String(),
		Server:        r.Server,
		Time:          r.Time,
		Candidates:    r.Candidates,
		Selected:      r.Selected,
		DirectTp:      r.DirectTp,
		SelectedTp:    r.SelectedTp,
		ProbeDirectTp: r.ProbeDirectTp,
		ProbeBestTp:   r.ProbeBestTp,
		Improvement:   r.Improvement,
	}
	if r.Err != nil {
		j.Err = r.Err.Error()
	}
	return j
}

// Write streams records to w as JSONL with a header line. comment is
// free-form provenance (seed, scale, date).
func Write(w io.Writer, comment string, records []experiment.Record) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	if err := enc.Encode(header{Schema: SchemaVersion, Kind: "records", Comment: comment}); err != nil {
		return err
	}
	for _, r := range records {
		if err := enc.Encode(toJSON(r)); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// csvHeader is the column layout of WriteCSV.
var csvHeader = []string{
	"client", "category", "server", "t_seconds", "selected",
	"direct_bps", "selected_bps", "probe_direct_bps", "probe_best_bps",
	"improvement_pct", "err",
}

// WriteCSV exports records as CSV for spreadsheet analysis. Candidate
// sets are omitted (they are per-round lists; use the JSONL form for
// full fidelity).
func WriteCSV(w io.Writer, records []experiment.Record) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(csvHeader); err != nil {
		return err
	}
	f := func(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }
	for _, r := range records {
		errStr := ""
		if r.Err != nil {
			errStr = r.Err.Error()
		}
		row := []string{
			r.Client, r.Category.String(), r.Server, f(r.Time), r.Selected,
			f(r.DirectTp), f(r.SelectedTp), f(r.ProbeDirectTp), f(r.ProbeBestTp),
			f(r.Improvement), errStr,
		}
		if err := cw.Write(row); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
