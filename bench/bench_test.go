package main

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"testing"
)

// benchmarkJSON mirrors the parts of ../BENCHMARK.json the code must
// agree with.
type benchmarkJSON struct {
	RunSeconds int `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []jsonMetric `json:"end_to_end"`
	PerLayer   []jsonMetric `json:"per_layer"`
}

type jsonMetric struct {
	Name, Unit, Better string
	Bound              float64
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc benchmarkJSON
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	return doc
}

// TestSpecMatchesBenchmarkJSON fails when the code and BENCHMARK.json list
// different workloads, metrics, units, directions or bounds.
func TestSpecMatchesBenchmarkJSON(t *testing.T) {
	doc := readBenchmarkJSON(t)
	if doc.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, code defaults to %d", doc.RunSeconds, defaultSeconds)
	}
	if len(doc.Workloads) != len(defs) {
		t.Fatalf("%d workloads in JSON, %d defined", len(doc.Workloads), len(defs))
	}
	for i, d := range defs {
		if doc.Workloads[i].Name != d.name || doc.Workloads[i].Why != d.why {
			t.Errorf("workload %d: JSON %q, defined %q (or their reasons differ)", i, doc.Workloads[i].Name, d.name)
		}
	}
	compare := func(kind string, fromJSON []jsonMetric, spec []metricSpec) {
		if len(fromJSON) != len(spec) {
			t.Fatalf("%s: %d metrics in JSON, %d in spec", kind, len(fromJSON), len(spec))
		}
		for i, m := range spec {
			if got := (metricSpec{fromJSON[i].Name, fromJSON[i].Unit, fromJSON[i].Better, fromJSON[i].Bound}); got != m {
				t.Errorf("%s %d: JSON %+v, spec %+v", kind, i, got, m)
			}
		}
	}
	compare("end_to_end", doc.EndToEnd, endToEnd)
	compare("per_layer", doc.PerLayer, perLayer)
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSmoke runs every workload, untraced and traced, and the ladder at
// 1/50 of their fixed work, and checks that each run is correct and emits
// every metric BENCHMARK.json names exactly once, finite, with its unit.
func TestSmoke(t *testing.T) {
	doc := readBenchmarkJSON(t)
	cfg := runConfig{seed: 1, seconds: 0.15, scale: 0.02}
	ladder, err := runLadder(cfg)
	if err != nil {
		t.Fatal(err)
	}
	checkMetrics := func(t *testing.T, got map[string]float64, want []jsonMetric, units []metricSpec) {
		t.Helper()
		if len(got) != len(want) {
			t.Errorf("emitted %d metrics, BENCHMARK.json names %d", len(got), len(want))
		}
		for i, m := range want {
			v, ok := got[m.Name]
			switch {
			case !ok:
				t.Errorf("%s not emitted", m.Name)
			case math.IsNaN(v) || math.IsInf(v, 0):
				t.Errorf("%s = %v", m.Name, v)
			case !metricName.MatchString(m.Name):
				t.Errorf("bad metric name %q", m.Name)
			case units[i].Unit == "" || units[i].Unit != m.Unit:
				t.Errorf("%s has unit %q in code, %q in JSON", m.Name, units[i].Unit, m.Unit)
			}
		}
	}
	for _, def := range defs {
		t.Run(def.name, func(t *testing.T) {
			rep, err := runWorkload(def, cfg, nil)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Errorf("untraced run incorrect: problems %v", rep.problems)
			}
			endToEndValues := map[string]float64{}
			for _, m := range endToEnd {
				endToEndValues[m.Name], _, _ = rep.endToEndMetric(m)
				if endToEndValues[m.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, endToEndValues[m.Name])
				}
			}
			checkMetrics(t, endToEndValues, doc.EndToEnd, endToEnd)

			traced := cfg
			traced.trace = true
			tr := newTracer()
			rep, err = runWorkload(def, traced, tr)
			if err != nil {
				t.Fatal(err)
			}
			if !rep.correct() {
				t.Errorf("traced run incorrect: problems %v", rep.problems)
			}
			checkMetrics(t, layerMetrics(ladder, rep), doc.PerLayer, perLayer)
			named := map[string]bool{}
			for _, m := range perLayer {
				named[m.Name] = true
			}
			for name := range rep.counters {
				if _, ok := ladder[name]; ok || !named[name] {
					t.Errorf("counter %s is also a ladder rung, or missing from the spec", name)
				}
			}
			if len(tr.summarize()) < 2 {
				t.Errorf("traced windows recorded spans of %d names, want a root and children", len(tr.summarize()))
			}
		})
	}
}
