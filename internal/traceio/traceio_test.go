package traceio

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/experiment"
	"repro/internal/topo"
)

func sampleRecords() []experiment.Record {
	return []experiment.Record{
		{
			Client: "Korea", Category: topo.Low, Server: "eBay", Time: 600,
			Candidates: []string{"MIT", "Texas"}, Selected: "MIT",
			DirectTp: 0.9e6, SelectedTp: 1.4e6,
			ProbeDirectTp: 0.8e6, ProbeBestTp: 1.2e6, Improvement: 55.5,
		},
		{
			Client: "Canada", Category: topo.High, Server: "eBay", Time: 960,
			Selected: "", DirectTp: 5e6, SelectedTp: 4.9e6, Improvement: -2,
		},
		{
			Client: "France", Category: topo.Medium, Server: "Yahoo", Time: 1320,
			Err: errors.New("relay down"),
		},
	}
}

// decode reads Write's output with encoding/json alone: the header
// object, then one object per record.
func decode(t *testing.T, buf *bytes.Buffer) (map[string]any, []map[string]any) {
	t.Helper()
	dec := json.NewDecoder(buf)
	var head map[string]any
	if err := dec.Decode(&head); err != nil {
		t.Fatalf("header: %v", err)
	}
	var rows []map[string]any
	for {
		var row map[string]any
		if err := dec.Decode(&row); errors.Is(err, io.EOF) {
			return head, rows
		} else if err != nil {
			t.Fatalf("record %d: %v", len(rows), err)
		}
		rows = append(rows, row)
	}
}

// TestRoundTrip pins Write's format: a header of kind "records" with the
// schema version and the comment, then one object per record, one per
// line, under the field names below.
func TestRoundTrip(t *testing.T) {
	recs := sampleRecords()
	var buf bytes.Buffer
	if err := Write(&buf, "seed=42 scale=test", recs); err != nil {
		t.Fatal(err)
	}
	if n := strings.Count(buf.String(), "\n"); n != 1+len(recs) {
		t.Fatalf("%d lines, want a header and one per record:\n%s", n, buf.String())
	}
	head, rows := decode(t, &buf)
	if want := map[string]any{"schema": float64(SchemaVersion), "kind": "records", "comment": "seed=42 scale=test"}; !reflect.DeepEqual(head, want) {
		t.Fatalf("header = %v, want %v", head, want)
	}
	want := []map[string]any{
		{
			"client": "Korea", "category": "Low", "server": "eBay", "t": 600.0,
			"candidates": []any{"MIT", "Texas"}, "selected": "MIT",
			"direct_bps": 0.9e6, "selected_bps": 1.4e6,
			"probe_direct_bps": 0.8e6, "probe_best_bps": 1.2e6, "improvement_pct": 55.5,
		},
		{
			"client": "Canada", "category": "High", "server": "eBay", "t": 960.0,
			"direct_bps": 5e6, "selected_bps": 4.9e6, "improvement_pct": -2.0,
		},
		{
			"client": "France", "category": "Medium", "server": "Yahoo", "t": 1320.0,
			"direct_bps": 0.0, "selected_bps": 0.0, "improvement_pct": 0.0, "err": "relay down",
		},
	}
	if !reflect.DeepEqual(rows, want) {
		t.Fatalf("records =\n%v\nwant\n%v", rows, want)
	}
}

// TestRoundTripProperty: any throughputs and improvement come back from
// the archive exactly.
func TestRoundTripProperty(t *testing.T) {
	f := func(tp1, tp2 float64, imp float64, sel bool) bool {
		rec := experiment.Record{
			Client: "X", Category: topo.Low, Server: "eBay",
			DirectTp: tp1, SelectedTp: tp2, Improvement: imp,
		}
		if sel {
			rec.Selected = "MIT"
		}
		var buf bytes.Buffer
		if err := Write(&buf, "", []experiment.Record{rec}); err != nil {
			return false
		}
		_, rows := decode(t, &buf)
		if len(rows) != 1 {
			return false
		}
		got := rows[0]
		selected, _ := got["selected"].(string)
		return got["direct_bps"] == rec.DirectTp && got["selected_bps"] == rec.SelectedTp &&
			got["improvement_pct"] == rec.Improvement && selected == rec.Selected
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, "empty", nil); err != nil {
		t.Fatal(err)
	}
	head, rows := decode(t, &buf)
	if len(rows) != 0 || head["kind"] != "records" || head["comment"] != "empty" {
		t.Fatalf("header %v, %d records", head, len(rows))
	}
}

func TestWriteCSV(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteCSV(&buf, sampleRecords()); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 4 { // header + 3 rows
		t.Fatalf("csv has %d lines, want 4:\n%s", len(lines), buf.String())
	}
	if !strings.HasPrefix(lines[0], "client,category,server") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "Korea") || !strings.Contains(lines[1], "MIT") {
		t.Fatalf("row = %q", lines[1])
	}
	if !strings.Contains(lines[3], "relay down") {
		t.Fatalf("error row = %q", lines[3])
	}
}

func TestTraceOfRealCampaign(t *testing.T) {
	// End-to-end: run a small campaign, archive it, and check that every
	// record's selection and improvement are in the archive as measured.
	study := experiment.RunStudy(experiment.StudyParams{
		Seed: 5, TransfersPerClient: 5, Servers: []string{"eBay"},
	})
	var buf bytes.Buffer
	if err := Write(&buf, "test campaign", study.Records); err != nil {
		t.Fatal(err)
	}
	_, rows := decode(t, &buf)
	if len(rows) != len(study.Records) {
		t.Fatalf("archived %d of %d records", len(rows), len(study.Records))
	}
	for i, r := range study.Records {
		selected, _ := rows[i]["selected"].(string)
		if rows[i]["client"] != r.Client || selected != r.Selected || rows[i]["improvement_pct"] != r.Improvement {
			t.Fatalf("record %d archived as %v, measured %+v", i, rows[i], r)
		}
	}
}
