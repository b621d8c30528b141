package obs

import (
	"strings"
	"testing"
	"time"
)

func TestPromHistogramBucketsCumulativeAndBounded(t *testing.T) {
	var lat LatencyRecorder
	for i := 0; i < 500; i++ {
		lat.Observe(time.Duration(i) * 10 * time.Millisecond) // 0 .. 5 s
	}
	lat.Observe(time.Hour) // overflow
	p := NewProm()
	p.Histogram("x_seconds", "test", lat.Snapshot())
	out := string(p.Bytes())
	if err := LintProm([]byte(out)); err != nil {
		t.Fatalf("lint: %v\n%s", err, out)
	}
	buckets := 0
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "x_seconds_bucket") {
			buckets++
		}
	}
	if buckets > promHistMaxBuckets+1 {
		t.Fatalf("%d bucket lines, want at most %d explicit + Inf", buckets, promHistMaxBuckets)
	}
	if !strings.Contains(out, `x_seconds_bucket{le="+Inf"} 501`) {
		t.Fatalf("+Inf bucket should equal total:\n%s", out)
	}
	if !strings.Contains(out, "x_seconds_count 501") {
		t.Fatalf("count missing:\n%s", out)
	}
}

func TestLintPromRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"sample without TYPE": "orphan_total 1\n",
		"bad metric name":     "# HELP 9bad x\n# TYPE 9bad counter\n9bad 1\n",
		"bad value":           "# HELP a_total x\n# TYPE a_total counter\na_total one\n",
		"bad TYPE":            "# HELP a x\n# TYPE a matrix\na 1\n",
		"non-cumulative buckets": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_bucket{le=\"2\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n",
		"missing +Inf": "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"1\"} 5\nh_sum 1\nh_count 5\n",
		"unbalanced labels": "# HELP a x\n# TYPE a counter\na}b{ 1\n",
		"unquoted label":    "# HELP a x\n# TYPE a counter\na{route=fast} 1\n",
	}
	for name, doc := range cases {
		if err := LintProm([]byte(doc)); err == nil {
			t.Fatalf("%s: lint accepted\n%s", name, doc)
		}
	}
}

func TestLintPromAcceptsWellFormed(t *testing.T) {
	doc := "# HELP a_total Things.\n# TYPE a_total counter\n" +
		"a_total{route=\"r,1\",kind=\"x\"} 3\n\n" +
		"# HELP g Level.\n# TYPE g gauge\ng 0.5\n"
	if err := LintProm([]byte(doc)); err != nil {
		t.Fatalf("lint rejected well-formed doc: %v", err)
	}
}

func TestHistogramQuantiles(t *testing.T) {
	// 100 observations spread uniformly over [0, 10): quantiles must track
	// the uniform distribution to within a bin width (0.1 s geometry).
	var lat LatencyRecorder
	for i := 0; i < 100; i++ {
		lat.Observe(time.Duration(i) * 100 * time.Millisecond)
	}
	s := lat.Snapshot()
	check := func(q, want, tol float64) {
		got := s.Quantile(q)
		if got < want-tol || got > want+tol {
			t.Fatalf("Quantile(%v) = %v, want %v ± %v", q, got, want, tol)
		}
	}
	check(0.5, 5.0, 0.2)
	check(0.9, 9.0, 0.2)
	check(0.99, 9.9, 0.2)
	if s.P50 != s.Quantile(0.5) || s.P90 != s.Quantile(0.9) || s.P99 != s.Quantile(0.99) {
		t.Fatal("precomputed P50/P90/P99 disagree with Quantile")
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var empty HistogramSnapshot
	if empty.Quantile(0.5) != 0 {
		t.Fatal("empty snapshot quantile should be 0")
	}
	s := HistogramSnapshot{Lo: 0, Hi: 10, Bins: make([]int64, 10)}
	s.Underflow = 5 // all mass below range
	s.Total = 5
	if s.Quantile(0.5) != 0 {
		t.Fatal("all-underflow quantile should clamp to Lo")
	}
	s = HistogramSnapshot{Lo: 0, Hi: 10, Bins: make([]int64, 10), Overflow: 5, Total: 5}
	if s.Quantile(0.5) != 10 {
		t.Fatal("all-overflow quantile should clamp to Hi")
	}
	// Out-of-range q clamps instead of misbehaving.
	s = HistogramSnapshot{Lo: 0, Hi: 10, Bins: []int64{4, 0, 0, 0, 0, 0, 0, 0, 0, 4}, Total: 8}
	if got := s.Quantile(-1); got < 0 || got > 1 {
		t.Fatalf("Quantile(-1) = %v", got)
	}
	if got := s.Quantile(2); got < 9 || got > 10 {
		t.Fatalf("Quantile(2) = %v", got)
	}
}

func TestMetricsSnapshotJSONCarriesQuantiles(t *testing.T) {
	m := NewMetrics()
	m.Fold(race())
	text := string(m.Snapshot().JSON())
	for _, want := range []string{`"p50"`, `"p90"`, `"p99"`} {
		if !strings.Contains(text, want) {
			t.Fatalf("snapshot JSON missing %s:\n%s", want, text)
		}
	}
}
