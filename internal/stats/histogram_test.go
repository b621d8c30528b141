package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestHistogramBinning(t *testing.T) {
	h := NewHistogram(0, 100, 10)
	h.AddAll([]float64{-5, 0, 9.99, 10, 55, 99.99, 100, 200})
	if h.Underflow != 1 {
		t.Errorf("underflow=%d, want 1", h.Underflow)
	}
	if h.Overflow != 2 {
		t.Errorf("overflow=%d, want 2 (100 and 200)", h.Overflow)
	}
	if h.Bins[0] != 2 { // 0 and 9.99
		t.Errorf("bin0=%d, want 2", h.Bins[0])
	}
	if h.Bins[1] != 1 { // 10
		t.Errorf("bin1=%d, want 1", h.Bins[1])
	}
	if h.Bins[5] != 1 { // 55
		t.Errorf("bin5=%d, want 1", h.Bins[5])
	}
	if h.Total() != 8 {
		t.Errorf("total=%d, want 8", h.Total())
	}
}

func TestHistogramConservationProperty(t *testing.T) {
	f := func(raw []float64) bool {
		h := NewHistogram(-50, 150, 20)
		n := 0
		for _, x := range raw {
			if math.IsNaN(x) {
				continue
			}
			h.Add(x)
			n++
		}
		var binned int64
		for _, c := range h.Bins {
			binned += c
		}
		return binned+h.Underflow+h.Overflow == int64(n) && h.Total() == int64(n)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestHistogramMerge(t *testing.T) {
	a := NewHistogram(0, 10, 5)
	b := NewHistogram(0, 10, 5)
	a.AddAll([]float64{1, 3, 5})
	b.AddAll([]float64{1, 7, 11, -1})
	a.Merge(b)
	if a.Total() != 7 {
		t.Fatalf("merged total=%d, want 7", a.Total())
	}
	if a.Bins[0] != 2 {
		t.Fatalf("merged bin0=%d, want 2", a.Bins[0])
	}
	if a.Overflow != 1 || a.Underflow != 1 {
		t.Fatalf("merged over/under=%d/%d", a.Overflow, a.Underflow)
	}
}

func TestHistogramMergeGeometryPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic on geometry mismatch")
		}
	}()
	NewHistogram(0, 10, 5).Merge(NewHistogram(0, 10, 6))
}

func TestHistogramFractionBetween(t *testing.T) {
	h := NewHistogram(-100, 300, 40) // width 10
	h.AddAll([]float64{-50, 10, 20, 30, 150, 250})
	got := h.FractionBetween(0, 100)
	if !almost(got, 0.5, 1e-12) { // 10,20,30 of 6
		t.Fatalf("FractionBetween(0,100)=%v, want 0.5", got)
	}
	if got := h.FractionBetween(-1000, 0); !almost(got, 1.0/6, 1e-12) {
		t.Fatalf("negative fraction=%v, want 1/6", got)
	}
}

func TestHistogramMode(t *testing.T) {
	h := NewHistogram(0, 10, 10)
	if h.Mode() != -1 {
		t.Fatal("empty histogram mode should be -1")
	}
	h.AddAll([]float64{5.5, 5.1, 5.9, 2.2})
	if h.Mode() != 5 {
		t.Fatalf("mode=%d, want 5", h.Mode())
	}
}

func TestHistogramPanicsOnBadGeometry(t *testing.T) {
	for _, f := range []func(){
		func() { NewHistogram(0, 10, 0) },
		func() { NewHistogram(10, 10, 5) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatal("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestNaNFree(t *testing.T) {
	if !NaNFree([]float64{1, 2, 3}) {
		t.Fatal("clean slice flagged")
	}
	if NaNFree([]float64{1, math.NaN()}) {
		t.Fatal("NaN not detected")
	}
}
