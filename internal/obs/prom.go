// Prometheus text-format exposition, hand-rolled over the package's own
// snapshot types: counters, gauges, and cumulative histograms with
// explicit buckets rendered from the fixed-bucket stats histograms. The
// daemons serve the result on /metrics so any Prometheus-compatible
// scraper can watch the relay fleet without this repo taking a client
// dependency. LintProm is the matching minimal parser, used by the test
// suite to keep the output well-formed.

package obs

import (
	"bytes"
	"fmt"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromContentType is the content-type of the classic text exposition
// format.
const PromContentType = "text/plain; version=0.0.4; charset=utf-8"

// OpenMetricsContentType is the content-type of the OpenMetrics text
// exposition. Served when the scraper's Accept header asks for it; the
// payload is the classic exposition plus bucket exemplars and the
// closing # EOF marker.
const OpenMetricsContentType = "application/openmetrics-text; version=1.0.0; charset=utf-8"

// AcceptsOpenMetrics reports whether an Accept header value asks for
// the OpenMetrics exposition. Matching is deliberately loose — any
// listed media type of application/openmetrics-text, regardless of
// parameters or q-weights, selects it; everything else (including an
// absent header) gets the classic text format.
func AcceptsOpenMetrics(accept string) bool {
	for _, part := range strings.Split(accept, ",") {
		mt, _, _ := strings.Cut(part, ";")
		if strings.TrimSpace(mt) == "application/openmetrics-text" {
			return true
		}
	}
	return false
}

// promHistMaxBuckets bounds how many explicit buckets a rendered
// histogram emits: the 200-bin snapshots are coarsened (cumulative
// counts make merging bins exact) so a scrape stays readable.
const promHistMaxBuckets = 20

// Prom accumulates metric families and renders the text exposition
// format. Not safe for concurrent use; build one per scrape.
type Prom struct {
	b  bytes.Buffer
	om bool
}

// NewProm returns an empty exposition builder for the classic text
// format.
func NewProm() *Prom { return &Prom{} }

// NewOpenMetricsProm returns a builder for the OpenMetrics flavor: the
// same families and samples as the classic format (so the two stay
// diffable), with histogram bucket exemplars attached and a # EOF
// terminator appended by Bytes. It is a subset of OpenMetrics, not a
// full implementation — families keep their classic names and TYPE
// spellings — validated by LintOpenMetrics.
func NewOpenMetricsProm() *Prom { return &Prom{om: true} }

// ContentType returns the content-type header value matching the
// builder's format.
func (p *Prom) ContentType() string {
	if p.om {
		return OpenMetricsContentType
	}
	return PromContentType
}

// Bytes returns the accumulated exposition (with the terminating # EOF
// marker in OpenMetrics mode).
func (p *Prom) Bytes() []byte {
	out := append([]byte(nil), p.b.Bytes()...)
	if p.om {
		out = append(out, "# EOF\n"...)
	}
	return out
}

func (p *Prom) head(name, typ, help string) {
	help = strings.ReplaceAll(help, "\\", `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	fmt.Fprintf(&p.b, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func promFloat(v float64) string { return strconv.FormatFloat(v, 'g', -1, 64) }

func promLabel(v string) string {
	v = strings.ReplaceAll(v, "\\", `\\`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return strings.ReplaceAll(v, `"`, `\"`)
}

// Counter emits a single-sample counter family.
func (p *Prom) Counter(name, help string, v float64) {
	p.head(name, "counter", help)
	fmt.Fprintf(&p.b, "%s %s\n", name, promFloat(v))
}

// Gauge emits a single-sample gauge family.
func (p *Prom) Gauge(name, help string, v float64) {
	p.head(name, "gauge", help)
	fmt.Fprintf(&p.b, "%s %s\n", name, promFloat(v))
}

// LabeledCounter emits one counter family with one sample per value of a
// single label, in sorted label order (a stable scrape diff).
func (p *Prom) LabeledCounter(name, help, label string, samples map[string]float64) {
	p.head(name, "counter", help)
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&p.b, "%s{%s=\"%s\"} %s\n", name, label, promLabel(k), promFloat(samples[k]))
	}
}

// LabeledGauge emits one gauge family with one sample per value of a
// single label, in sorted label order.
func (p *Prom) LabeledGauge(name, help, label string, samples map[string]float64) {
	p.head(name, "gauge", help)
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(&p.b, "%s{%s=\"%s\"} %s\n", name, label, promLabel(k), promFloat(samples[k]))
	}
}

// Histogram emits a cumulative-bucket histogram family from a snapshot.
// Bucket edges are the snapshot's bin edges, coarsened to at most
// promHistMaxBuckets explicit le bounds plus +Inf; underflow counts into
// every bucket (an observation below Lo is ≤ any edge) and overflow only
// into +Inf. The _sum comes straight from the snapshot — exact for
// striped recorders, a bin-center estimate otherwise. In OpenMetrics
// mode each explicit bucket carries the most recent exemplar whose
// observation landed in the bin range the coarsened bucket covers.
func (p *Prom) Histogram(name, help string, h HistogramSnapshot) {
	p.head(name, "histogram", help)
	nbins := len(h.Bins)
	width := 0.0
	if nbins > 0 {
		width = (h.Hi - h.Lo) / float64(nbins)
	}
	step := 1
	if nbins > promHistMaxBuckets {
		step = (nbins + promHistMaxBuckets - 1) / promHistMaxBuckets
	}
	cum := h.Underflow
	lowBin := 0
	for i := 0; i < nbins; i++ {
		cum += h.Bins[i]
		if (i+1)%step == 0 || i == nbins-1 {
			edge := h.Lo + float64(i+1)*width
			fmt.Fprintf(&p.b, "%s_bucket{le=%q} %d", name, promFloat(edge), cum)
			p.exemplar(h.Exemplars, lowBin, i)
			p.b.WriteByte('\n')
			lowBin = i + 1
		}
	}
	fmt.Fprintf(&p.b, "%s_bucket{le=\"+Inf\"} %d\n", name, h.Total)
	fmt.Fprintf(&p.b, "%s_sum %s\n", name, promFloat(h.Sum))
	fmt.Fprintf(&p.b, "%s_count %d\n", name, h.Total)
}

// exemplar appends, in OpenMetrics mode, the freshest exemplar whose
// bin falls inside [lo, hi] as an exemplar suffix on the current bucket
// line. Timestamps render in seconds, the OpenMetrics unit.
func (p *Prom) exemplar(exemplars []Exemplar, lo, hi int) {
	if !p.om {
		return
	}
	best := -1
	for i, e := range exemplars {
		if e.Bin < lo || e.Bin > hi || e.Trace.IsZero() {
			continue
		}
		if best < 0 || e.Time > exemplars[best].Time {
			best = i
		}
	}
	if best < 0 {
		return
	}
	e := exemplars[best]
	ts := float64(e.Time) / 1e9
	fmt.Fprintf(&p.b, " # {trace_id=%q} %s %s",
		e.Trace.String(), promFloat(e.Value), strconv.FormatFloat(ts, 'f', 3, 64))
}

// HistogramEdges emits a cumulative-bucket histogram family from
// explicit bucket edges, the shape runtime/metrics hands back:
// counts[i] covers [edges[i], edges[i+1]), len(edges) == len(counts)+1,
// and the first/last edges may be infinite. Buckets are coarsened to at
// most promHistMaxBuckets explicit bounds plus +Inf; _sum is a
// midpoint estimate with infinite edges valued at their finite
// neighbor.
func (p *Prom) HistogramEdges(name, help string, edges []float64, counts []uint64) {
	p.head(name, "histogram", help)
	n := len(counts)
	if n == 0 || len(edges) != n+1 {
		fmt.Fprintf(&p.b, "%s_bucket{le=\"+Inf\"} 0\n%s_sum 0\n%s_count 0\n", name, name, name)
		return
	}
	var total uint64
	for _, c := range counts {
		total += c
	}
	step := 1
	if n > promHistMaxBuckets {
		step = (n + promHistMaxBuckets - 1) / promHistMaxBuckets
	}
	var cum uint64
	sum := 0.0
	for i := 0; i < n; i++ {
		cum += counts[i]
		lo, hi := edges[i], edges[i+1]
		mid := 0.0
		switch {
		case math.IsInf(lo, -1) && math.IsInf(hi, 1):
		case math.IsInf(lo, -1):
			mid = hi
		case math.IsInf(hi, 1):
			mid = lo
		default:
			mid = (lo + hi) / 2
		}
		sum += float64(counts[i]) * mid
		if ((i+1)%step == 0 || i == n-1) && !math.IsInf(hi, 1) {
			fmt.Fprintf(&p.b, "%s_bucket{le=%q} %d\n", name, promFloat(hi), cum)
		}
	}
	fmt.Fprintf(&p.b, "%s_bucket{le=\"+Inf\"} %d\n", name, total)
	fmt.Fprintf(&p.b, "%s_sum %s\n", name, promFloat(sum))
	fmt.Fprintf(&p.b, "%s_count %d\n", name, total)
}

// LintProm is the test suite's minimal validity check for the text
// exposition format. It verifies that every line is a well-formed HELP,
// TYPE, or sample line; that metric names are legal; that sample values
// parse; that every sample belongs to a family announced by a TYPE line;
// and that histogram bucket counts are cumulative (non-decreasing, with
// a closing +Inf bucket). It is a lint, not a full parser: labels are
// checked structurally, not decoded.
func LintProm(b []byte) error {
	typed := make(map[string]string)
	lastBucket := make(map[string]float64) // family -> last cumulative count
	sawInf := make(map[string]bool)
	for ln, line := range strings.Split(string(b), "\n") {
		lineNo := ln + 1
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kind, name, rest, err := promComment(line)
			if err != nil {
				return fmt.Errorf("prom lint: line %d: %v", lineNo, err)
			}
			if kind == "TYPE" {
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("prom lint: line %d: bad TYPE %q", lineNo, rest)
				}
				typed[name] = rest
			}
			continue
		}
		name, labels, value, err := promSample(line)
		if err != nil {
			return fmt.Errorf("prom lint: line %d: %v", lineNo, err)
		}
		family := name
		for _, suffix := range []string{"_bucket", "_sum", "_count"} {
			if t, ok := typed[strings.TrimSuffix(name, suffix)]; ok && t == "histogram" {
				family = strings.TrimSuffix(name, suffix)
				break
			}
		}
		if _, ok := typed[family]; !ok {
			return fmt.Errorf("prom lint: line %d: sample %q has no TYPE line", lineNo, name)
		}
		if strings.HasSuffix(name, "_bucket") && typed[family] == "histogram" {
			le, ok := promLE(labels)
			if !ok {
				return fmt.Errorf("prom lint: line %d: bucket without le label", lineNo)
			}
			if value < lastBucket[family] {
				return fmt.Errorf("prom lint: line %d: bucket counts of %s not cumulative", lineNo, family)
			}
			lastBucket[family] = value
			if le == "+Inf" {
				sawInf[family] = true
			}
		}
	}
	for family, typ := range typed {
		if typ == "histogram" && lastBucket[family] >= 0 && !sawInf[family] {
			return fmt.Errorf("prom lint: histogram %s has no +Inf bucket", family)
		}
	}
	return nil
}

// LintOpenMetrics validates the OpenMetrics flavor of the exposition:
// the payload must end with the # EOF marker, exemplar suffixes may
// only appear on _bucket sample lines and must be syntactically sound
// ({labels} value [timestamp]), and what remains after stripping both
// must pass LintProm unchanged — the OpenMetrics output is the classic
// one plus annotations, never a different exposition.
func LintOpenMetrics(b []byte) error {
	s := string(b)
	if !strings.HasSuffix(s, "# EOF\n") {
		return fmt.Errorf("openmetrics lint: missing terminating # EOF")
	}
	s = strings.TrimSuffix(s, "# EOF\n")
	var classic strings.Builder
	for ln, line := range strings.Split(s, "\n") {
		lineNo := ln + 1
		body := line
		if i := strings.Index(line, " # "); i >= 0 && !strings.HasPrefix(line, "#") {
			body = line[:i]
			ex := line[i+3:]
			if !strings.Contains(body, "_bucket") {
				return fmt.Errorf("openmetrics lint: line %d: exemplar on non-bucket sample", lineNo)
			}
			if err := lintExemplar(ex); err != nil {
				return fmt.Errorf("openmetrics lint: line %d: %v", lineNo, err)
			}
		}
		classic.WriteString(body)
		classic.WriteByte('\n')
	}
	return LintProm([]byte(classic.String()))
}

// lintExemplar checks one exemplar annotation: {label="value",...}
// followed by a float value and an optional float timestamp.
func lintExemplar(ex string) error {
	if !strings.HasPrefix(ex, "{") {
		return fmt.Errorf("exemplar %q does not start with labels", ex)
	}
	end := strings.IndexByte(ex, '}')
	if end < 0 {
		return fmt.Errorf("exemplar %q has unbalanced labels", ex)
	}
	for _, pair := range splitLabels(ex[1:end]) {
		k, v, ok := strings.Cut(pair, "=")
		if !ok || !promName(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
			return fmt.Errorf("bad exemplar label %q", pair)
		}
	}
	fields := strings.Fields(ex[end+1:])
	if len(fields) != 1 && len(fields) != 2 {
		return fmt.Errorf("exemplar %q needs a value and optional timestamp", ex)
	}
	for _, f := range fields {
		if _, err := strconv.ParseFloat(f, 64); err != nil {
			return fmt.Errorf("bad exemplar number %q", f)
		}
	}
	return nil
}

func promName(s string) bool {
	if s == "" {
		return false
	}
	for i, r := range s {
		alpha := r == '_' || r == ':' || (r >= 'a' && r <= 'z') || (r >= 'A' && r <= 'Z')
		if !alpha && (i == 0 || r < '0' || r > '9') {
			return false
		}
	}
	return true
}

func promComment(line string) (kind, name, rest string, err error) {
	fields := strings.SplitN(line, " ", 4)
	if len(fields) < 3 || fields[0] != "#" {
		return "", "", "", fmt.Errorf("malformed comment %q", line)
	}
	kind = fields[1]
	if kind != "HELP" && kind != "TYPE" {
		return "", "", "", fmt.Errorf("unknown comment kind %q", kind)
	}
	name = fields[2]
	if !promName(name) {
		return "", "", "", fmt.Errorf("bad metric name %q", name)
	}
	if len(fields) == 4 {
		rest = fields[3]
	}
	return kind, name, rest, nil
}

func promSample(line string) (name, labels string, value float64, err error) {
	body := line
	if i := strings.IndexByte(body, '{'); i >= 0 {
		j := strings.LastIndexByte(body, '}')
		if j < i {
			return "", "", 0, fmt.Errorf("unbalanced labels in %q", line)
		}
		name, labels = body[:i], body[i+1:j]
		body = name + body[j+1:]
		if labels != "" {
			for _, pair := range splitLabels(labels) {
				k, v, ok := strings.Cut(pair, "=")
				if !ok || !promName(k) || len(v) < 2 || v[0] != '"' || v[len(v)-1] != '"' {
					return "", "", 0, fmt.Errorf("bad label %q in %q", pair, line)
				}
			}
		}
	}
	fields := strings.Fields(body)
	if len(fields) != 2 && len(fields) != 3 { // optional timestamp
		return "", "", 0, fmt.Errorf("malformed sample %q", line)
	}
	name = fields[0]
	if i := strings.IndexByte(name, '{'); i >= 0 {
		name = name[:i]
	}
	if !promName(name) {
		return "", "", 0, fmt.Errorf("bad metric name %q", name)
	}
	value, err = strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return "", "", 0, fmt.Errorf("bad value %q", fields[1])
	}
	return name, labels, value, nil
}

// splitLabels splits a label body on commas outside quoted values.
func splitLabels(s string) []string {
	var out []string
	depth := false
	start := 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '"':
			if i == 0 || s[i-1] != '\\' {
				depth = !depth
			}
		case ',':
			if !depth {
				out = append(out, s[start:i])
				start = i + 1
			}
		}
	}
	return append(out, s[start:])
}

// promLE extracts the le label value from a bucket's label body.
func promLE(labels string) (string, bool) {
	for _, pair := range splitLabels(labels) {
		if k, v, ok := strings.Cut(pair, "="); ok && k == "le" && len(v) >= 2 {
			return v[1 : len(v)-1], true
		}
	}
	return "", false
}
