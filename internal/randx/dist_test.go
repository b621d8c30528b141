package randx

import (
	"math"
	"testing"
)

func TestLogNormalPositive(t *testing.T) {
	d := LogNormal{Mu: 0, Sigma: 1.5}
	r := New(4)
	for i := 0; i < 10000; i++ {
		if v := d.Sample(r); v <= 0 {
			t.Fatalf("lognormal variate non-positive: %v", v)
		}
	}
}

// TestLogNormalSampleMean checks the sample mean against the analytic
// exp(Mu + Sigma²/2), with Mu chosen to put that mean at 3.
func TestLogNormalSampleMean(t *testing.T) {
	for _, sigma := range []float64{0.2, 0.5, 1.0} {
		d := LogNormal{Mu: math.Log(3.0) - sigma*sigma/2, Sigma: sigma}
		r := New(5)
		sum := 0.0
		const n = 400000
		for i := 0; i < n; i++ {
			sum += d.Sample(r)
		}
		if got := sum / n; math.Abs(got-3.0) > 0.1 {
			t.Fatalf("sample mean %v, want ~3.0 (sigma=%v)", got, sigma)
		}
	}
}
