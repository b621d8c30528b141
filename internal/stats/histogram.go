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

// CDF describes an empirical cumulative distribution as sorted (x, F(x))
// points.
type CDF struct {
	X []float64
	F []float64
}

// EmpiricalCDF computes the empirical CDF of xs. The input is copied and
// sorted; xs is unmodified.
func EmpiricalCDF(xs []float64) CDF {
	n := len(xs)
	c := CDF{X: make([]float64, n), F: make([]float64, n)}
	copy(c.X, xs)
	sortFloat64s(c.X)
	for i := range c.F {
		c.F[i] = float64(i+1) / float64(n)
	}
	return c
}

// At returns F(x): the fraction of observations <= x.
func (c CDF) At(x float64) float64 {
	lo, hi := 0, len(c.X)
	for lo < hi {
		mid := (lo + hi) / 2
		if c.X[mid] <= x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if len(c.X) == 0 {
		return 0
	}
	return float64(lo) / float64(len(c.X))
}

func sortFloat64s(xs []float64) {
	// Insertion sort for tiny inputs, heapsort otherwise; avoids pulling
	// sort into this file's hot path... but clarity wins: delegate.
	quickSort(xs, 0, len(xs)-1)
}

func quickSort(xs []float64, lo, hi int) {
	for lo < hi {
		if hi-lo < 12 {
			for i := lo + 1; i <= hi; i++ {
				for j := i; j > lo && xs[j] < xs[j-1]; j-- {
					xs[j], xs[j-1] = xs[j-1], xs[j]
				}
			}
			return
		}
		mid := lo + (hi-lo)/2
		// Median-of-three pivot.
		if xs[mid] < xs[lo] {
			xs[mid], xs[lo] = xs[lo], xs[mid]
		}
		if xs[hi] < xs[lo] {
			xs[hi], xs[lo] = xs[lo], xs[hi]
		}
		if xs[hi] < xs[mid] {
			xs[hi], xs[mid] = xs[mid], xs[hi]
		}
		pivot := xs[mid]
		i, j := lo, hi
		for i <= j {
			for xs[i] < pivot {
				i++
			}
			for xs[j] > pivot {
				j--
			}
			if i <= j {
				xs[i], xs[j] = xs[j], xs[i]
				i++
				j--
			}
		}
		// Recurse on the smaller side to bound stack depth.
		if j-lo < hi-i {
			quickSort(xs, lo, j)
			lo = i
		} else {
			quickSort(xs, i, hi)
			hi = j
		}
	}
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
