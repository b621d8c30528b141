package obs

import (
	"math"
	"os"
	"strings"
	"testing"
	"time"
)

func TestAcceptsOpenMetrics(t *testing.T) {
	cases := []struct {
		accept string
		want   bool
	}{
		{"", false},
		{"text/plain", false},
		{"application/openmetrics-text", true},
		{"application/openmetrics-text; version=1.0.0; charset=utf-8", true},
		{"text/plain;q=0.5, application/openmetrics-text;version=1.0.0;q=0.9", true},
		{" application/openmetrics-text , text/plain", true},
		{"application/openmetrics-text+weird", false},
		{"*/*", false},
	}
	for _, c := range cases {
		if got := AcceptsOpenMetrics(c.accept); got != c.want {
			t.Fatalf("AcceptsOpenMetrics(%q) = %v, want %v", c.accept, got, c.want)
		}
	}
}

// renderBoth builds the same exposition through the classic and the
// OpenMetrics builders.
func renderBoth(fill func(p *Prom)) (classic, om []byte) {
	pc, po := NewProm(), NewOpenMetricsProm()
	fill(pc)
	fill(po)
	return pc.Bytes(), po.Bytes()
}

// stripOM removes exemplar suffixes and the # EOF terminator, the only
// two things the OpenMetrics flavor may add.
func stripOM(b []byte) string {
	var out strings.Builder
	body := strings.TrimSuffix(strings.TrimSuffix(string(b), "# EOF\n"), "\n")
	for _, line := range strings.Split(body, "\n") {
		if i := strings.Index(line, " # "); i >= 0 && !strings.HasPrefix(line, "#") {
			line = line[:i]
		}
		out.WriteString(line)
		out.WriteByte('\n')
	}
	return strings.TrimSuffix(out.String(), "\n")
}

func TestOpenMetricsIsClassicPlusAnnotations(t *testing.T) {
	var rec LatencyRecorder
	for i := 0; i < 50; i++ {
		rec.ObserveTrace(time.Duration(i)*37*time.Millisecond, NewTraceID())
	}
	snap := rec.Snapshot()
	classic, om := renderBoth(func(p *Prom) {
		p.Counter("x_requests_total", "Requests.", 5)
		p.Gauge("x_depth", "Depth.", 2)
		p.LabeledCounter("x_by_route_total", "By route.", "route", map[string]float64{"a": 1, "b": 2})
		p.Histogram("x_latency_seconds", "Latency.", snap)
	})
	if err := LintProm(classic); err != nil {
		t.Fatalf("classic lint: %v", err)
	}
	if err := LintOpenMetrics(om); err != nil {
		t.Fatalf("openmetrics lint: %v", err)
	}
	if got := stripOM(om); got != strings.TrimSuffix(string(classic), "\n") {
		t.Fatalf("OM minus annotations differs from classic:\n--- om-stripped ---\n%s\n--- classic ---\n%s", got, classic)
	}
	if !strings.Contains(string(om), ` # {trace_id="`) {
		t.Fatal("OM render of a traced histogram carries no exemplar")
	}
	if strings.Contains(string(classic), " # {") {
		t.Fatal("classic render leaked exemplar annotations")
	}
	if !strings.HasSuffix(string(om), "# EOF\n") {
		t.Fatal("OM render missing # EOF")
	}
}

func TestContentTypesByBuilder(t *testing.T) {
	if ct := NewProm().ContentType(); ct != PromContentType {
		t.Fatalf("classic content type %q", ct)
	}
	if ct := NewOpenMetricsProm().ContentType(); ct != OpenMetricsContentType {
		t.Fatalf("OM content type %q", ct)
	}
}

func TestExemplarRendersOnMatchingBucket(t *testing.T) {
	var rec LatencyRecorder
	slow := NewTraceID()
	for i := 0; i < 200; i++ {
		rec.Observe(100 * time.Millisecond)
	}
	rec.ObserveTrace(15*time.Second, slow) // lands in a high bucket alone
	p := NewOpenMetricsProm()
	p.Histogram("t_latency_seconds", "T.", rec.Snapshot())
	out := string(p.Bytes())
	if err := LintOpenMetrics(p.Bytes()); err != nil {
		t.Fatalf("lint: %v", err)
	}
	var exLine string
	for _, line := range strings.Split(out, "\n") {
		if strings.Contains(line, slow.String()) {
			exLine = line
		}
	}
	if exLine == "" {
		t.Fatalf("exemplar trace %s not rendered:\n%s", slow, out)
	}
	// The exemplar must sit on the first bucket whose range covers 15s
	// (le="16" with the 20-bucket coarsening of [0,20)x200), value 15.
	if !strings.Contains(exLine, `le="16"`) || !strings.Contains(exLine, `} 15 `) {
		t.Fatalf("exemplar on wrong bucket or value: %q", exLine)
	}
}

func TestHistogramSumExactFromStripedRecorder(t *testing.T) {
	// The striped recorder keeps an exact running sum; the rendered _sum
	// must reproduce it bit-for-bit. Quarter seconds are exactly
	// representable, so no tolerance is needed.
	var rec LatencyRecorder
	durations := []time.Duration{
		250 * time.Millisecond,
		500 * time.Millisecond,
		time.Second,
		750 * time.Millisecond,
		1250 * time.Millisecond,
	}
	want := 0.0
	for _, d := range durations {
		rec.Observe(d)
		want += d.Seconds()
	}
	snap := rec.Snapshot()
	if snap.Sum != want {
		t.Fatalf("snapshot sum %v, want exactly %v", snap.Sum, want)
	}
	p := NewProm()
	p.Histogram("t_latency_seconds", "T.", snap)
	if !strings.Contains(string(p.Bytes()), "t_latency_seconds_sum 3.75\n") {
		t.Fatalf("rendered _sum not exact:\n%s", p.Bytes())
	}
}

func TestHistogramEdgesRuntimeShape(t *testing.T) {
	// The runtime/metrics shape: first and last edges infinite.
	edges := []float64{math.Inf(-1), 0.001, 0.002, 0.004, math.Inf(1)}
	counts := []uint64{1, 10, 5, 2}
	p := NewProm()
	p.HistogramEdges("t_pause_seconds", "T.", edges, counts)
	out := string(p.Bytes())
	if err := LintProm(p.Bytes()); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
	if !strings.Contains(out, `t_pause_seconds_bucket{le="+Inf"} 18`) {
		t.Fatalf("+Inf bucket must carry the full count:\n%s", out)
	}
	if !strings.Contains(out, "t_pause_seconds_count 18\n") {
		t.Fatalf("count must be 18:\n%s", out)
	}
	// No explicit bucket for the infinite upper edge.
	if strings.Contains(out, `le="Inf"`) || strings.Contains(out, `le="-Inf"`) {
		t.Fatalf("infinite edges leaked into explicit buckets:\n%s", out)
	}
}

func TestHistogramEdgesEmptyAndMismatched(t *testing.T) {
	for _, c := range []struct {
		edges  []float64
		counts []uint64
	}{
		{nil, nil},
		{[]float64{0, 1}, nil},
		{[]float64{0, 1}, []uint64{1, 2}}, // len mismatch
	} {
		p := NewProm()
		p.HistogramEdges("t_x_seconds", "T.", c.edges, c.counts)
		if err := LintProm(p.Bytes()); err != nil {
			t.Fatalf("degenerate input %v/%v rendered invalid exposition: %v", c.edges, c.counts, err)
		}
		if !strings.Contains(string(p.Bytes()), "t_x_seconds_count 0\n") {
			t.Fatalf("degenerate input should render an empty histogram:\n%s", p.Bytes())
		}
	}
}

func TestWriteRuntimePromFamiliesAndLint(t *testing.T) {
	p := NewProm()
	WriteRuntimeProm(p)
	out := string(p.Bytes())
	if err := LintProm(p.Bytes()); err != nil {
		t.Fatalf("runtime families fail lint: %v", err)
	}
	for _, fam := range []string{
		"go_goroutines", "go_gomaxprocs", "go_memstats_heap_objects_bytes",
		"go_memstats_total_bytes", "go_gc_cycles_total",
		"go_gc_pause_seconds", "go_sched_latency_seconds",
	} {
		if !strings.Contains(out, "# TYPE "+fam+" ") {
			t.Fatalf("runtime exposition missing %s:\n%s", fam, out)
		}
	}
	// OM flavor stays lintable too (runtime histograms carry no
	// exemplars, but the payload shape must hold).
	po := NewOpenMetricsProm()
	WriteRuntimeProm(po)
	if err := LintOpenMetrics(po.Bytes()); err != nil {
		t.Fatalf("runtime families fail OM lint: %v", err)
	}
}

// classicFixture feeds one family of every kind the builder renders,
// from fixed inputs: the histogram is a literal snapshot (40 bins, so
// the coarsening to 20 buckets runs) with under- and overflow and two
// traced observations.
func classicFixture(p *Prom) {
	p.Counter("x_requests_total", "Requests handled, including failures.", 42)
	p.Gauge("x_depth", "Queue depth.", 2.5)
	p.LabeledCounter("x_by_route_total", "Requests by route.", "route",
		map[string]float64{"direct": 7, "campus": 35})
	p.LabeledGauge("x_health", "Health by route, a help with a \\ and a\nnewline.", "route",
		map[string]float64{"direct": 1, `we"ird\`: 0.25, "127.0.0.1:8080": 1e-9})
	p.Histogram("x_latency_seconds", "Request latency.", HistogramSnapshot{
		Lo: 0, Hi: 20,
		Bins: []int64{3, 0, 1, 4, 0, 0, 2, 0, 0, 0, 0, 5, 0, 0, 0, 0, 0, 0, 0, 1,
			0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 7, 0, 0, 0, 0, 0, 0, 1},
		Underflow: 1, Overflow: 2, Total: 27, Sum: 163.0625,
		Exemplars: []Exemplar{
			{Bin: 3, Value: 1.75, Trace: TraceID{0xab, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, Time: 1_700_000_000_250_000_000},
			{Bin: 32, Value: 16.125, Trace: TraceID{0xcd, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15}, Time: 1_700_000_001_000_000_000},
		},
	})
}

// TestPromOMClassicByteCompatible (the builder half; internal/daemon
// has the daemons' pages) pins the classic text format byte for byte to
// testdata/classic.golden, and the OpenMetrics rendering of the same
// inputs to exactly that page plus exemplar suffixes and # EOF. The
// golden changes only when the exposition is meant to.
func TestPromOMClassicByteCompatible(t *testing.T) {
	want, err := os.ReadFile("testdata/classic.golden")
	if err != nil {
		t.Fatal(err)
	}
	classic, om := renderBoth(classicFixture)
	if string(classic) != string(want) {
		t.Fatalf("classic page left the golden bytes:\n--- got ---\n%s\n--- want ---\n%s", classic, want)
	}
	if err := LintProm(classic); err != nil {
		t.Fatalf("classic lint: %v", err)
	}
	if err := LintOpenMetrics(om); err != nil {
		t.Fatalf("openmetrics lint: %v", err)
	}
	if got := stripOM(om) + "\n"; got != string(want) {
		t.Fatalf("OM minus annotations differs from the golden page:\n%s", got)
	}
	if n := strings.Count(string(om), ` # {trace_id="`); n != 2 {
		t.Fatalf("OM page carries %d exemplars, want 2:\n%s", n, om)
	}
	if !strings.HasSuffix(string(om), "# EOF\n") {
		t.Fatal("OM page missing # EOF")
	}
}
