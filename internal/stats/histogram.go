package stats

import "math"

// Histogram is a fixed-width-bin histogram over [Lo, Hi), with explicit
// underflow and overflow counters so no observation is silently dropped.
// It backs the paper's Figures 1 and 2 (improvement distributions).
type Histogram struct {
	Lo, Hi    float64
	Bins      []int64
	Underflow int64
	Overflow  int64
	total     int64
}

// NewHistogram creates a histogram with nbins equal-width bins spanning
// [lo, hi). It panics if nbins <= 0 or hi <= lo.
func NewHistogram(lo, hi float64, nbins int) *Histogram {
	if nbins <= 0 {
		panic("stats: NewHistogram requires nbins > 0")
	}
	if hi <= lo {
		panic("stats: NewHistogram requires hi > lo")
	}
	return &Histogram{Lo: lo, Hi: hi, Bins: make([]int64, nbins)}
}

// Add records one observation.
func (h *Histogram) Add(x float64) {
	h.total++
	switch {
	case x < h.Lo:
		h.Underflow++
	case x >= h.Hi:
		h.Overflow++
	default:
		i := int((x - h.Lo) / h.BinWidth())
		if i >= len(h.Bins) { // guard against floating-point edge at Hi
			i = len(h.Bins) - 1
		}
		h.Bins[i]++
	}
}

// AddAll records every observation in xs.
func (h *Histogram) AddAll(xs []float64) {
	for _, x := range xs {
		h.Add(x)
	}
}

// Merge folds another histogram with identical geometry into h. It panics
// if geometries differ.
func (h *Histogram) Merge(o *Histogram) {
	if h.Lo != o.Lo || h.Hi != o.Hi || len(h.Bins) != len(o.Bins) {
		panic("stats: Merge of histograms with different geometry")
	}
	for i, c := range o.Bins {
		h.Bins[i] += c
	}
	h.Underflow += o.Underflow
	h.Overflow += o.Overflow
	h.total += o.total
}

// BinWidth returns the width of each bin.
func (h *Histogram) BinWidth() float64 { return (h.Hi - h.Lo) / float64(len(h.Bins)) }

// BinCenter returns the center of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	return h.Lo + (float64(i)+0.5)*h.BinWidth()
}

// Total returns the number of recorded observations, including under- and
// overflow.
func (h *Histogram) Total() int64 { return h.total }

// FractionBetween returns the fraction of all observations with values in
// [lo, hi), counting whole bins whose centers fall in the range plus under
// or overflow when the range extends past the histogram edges.
func (h *Histogram) FractionBetween(lo, hi float64) float64 {
	if h.total == 0 {
		return 0
	}
	var count int64
	if lo < h.Lo {
		count += h.Underflow
	}
	if hi > h.Hi {
		count += h.Overflow
	}
	for i, c := range h.Bins {
		if center := h.BinCenter(i); center >= lo && center < hi {
			count += c
		}
	}
	return float64(count) / float64(h.total)
}

// Mode returns the index of the most populated bin (the first one on ties),
// or -1 for an empty histogram.
func (h *Histogram) Mode() int {
	best, bestCount := -1, int64(0)
	for i, c := range h.Bins {
		if c > bestCount {
			best, bestCount = i, c
		}
	}
	return best
}

// NaNFree reports whether xs contains no NaNs; experiment drivers assert
// this on computed improvement samples before aggregation.
func NaNFree(xs []float64) bool {
	for _, x := range xs {
		if math.IsNaN(x) {
			return false
		}
	}
	return true
}
