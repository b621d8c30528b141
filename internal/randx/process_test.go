package randx

import (
	"math"
	"testing"
)

func TestOUStartsAtMean(t *testing.T) {
	p := NewOU(2.5, 0.1, 0.3)
	if math.Abs(p.Value()-2.5) > 1e-12 {
		t.Fatalf("OU initial value %v, want 2.5", p.Value())
	}
}

func TestOUStaysPositive(t *testing.T) {
	p := NewOU(1.0, 0.05, 1.0)
	r := New(1)
	for i := 0; i < 10000; i++ {
		if v := p.Step(r, 1.0); v <= 0 {
			t.Fatalf("OU went non-positive at step %d: %v", i, v)
		}
	}
}

func TestOUMeanReversion(t *testing.T) {
	// Start far from the mean with zero noise: must decay toward the mean.
	p := NewOU(1.0, 0.5, 0)
	p.SetValue(10)
	r := New(2)
	prev := p.Value()
	for i := 0; i < 20; i++ {
		v := p.Step(r, 1.0)
		if v >= prev {
			t.Fatalf("noiseless OU failed to decay at step %d: %v >= %v", i, v, prev)
		}
		prev = v
	}
	if math.Abs(prev-1.0) > 0.01 {
		t.Fatalf("OU did not converge to mean: %v", prev)
	}
}

func TestOULongRunGeometricMean(t *testing.T) {
	p := NewOU(2.0, 0.2, 0.4)
	r := New(3)
	sumLog := 0.0
	const n = 50000
	for i := 0; i < n; i++ {
		sumLog += math.Log(p.Step(r, 1.0))
	}
	gm := math.Exp(sumLog / n)
	if math.Abs(gm-2.0) > 0.1 {
		t.Fatalf("OU long-run geometric mean %v, want ~2.0", gm)
	}
}

func TestOUZeroDtNoChange(t *testing.T) {
	p := NewOU(1.0, 0.1, 0.5)
	r := New(4)
	p.Step(r, 5)
	before := p.Value()
	if v := p.Step(r, 0); v != before {
		t.Fatalf("dt=0 changed value: %v -> %v", before, v)
	}
}

func TestOUPanicsOnBadMean(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for mean <= 0")
		}
	}()
	NewOU(0, 0.1, 0.1)
}

func TestRegimeLevels(t *testing.T) {
	p := NewRegime(1.0, 0.2, 100, 20)
	r := New(5)
	for i := 0; i < 10000; i++ {
		v := p.Step(r, 1.0)
		if v != 1.0 && v != 0.2 {
			t.Fatalf("regime produced level %v, want 1.0 or 0.2", v)
		}
	}
}

func TestRegimeOccupancy(t *testing.T) {
	// Mean holds 100s quiet / 25s busy: long-run busy fraction ~ 25/125 = 0.2.
	p := NewRegime(0, 1, 100, 25)
	r := New(6)
	busy := 0.0
	const n = 400000
	for i := 0; i < n; i++ {
		busy += p.Step(r, 1.0)
	}
	frac := busy / n
	if math.Abs(frac-0.2) > 0.02 {
		t.Fatalf("busy occupancy %v, want ~0.2", frac)
	}
}

func TestRegimeSwitches(t *testing.T) {
	p := NewRegime(1, 2, 10, 10)
	r := New(7)
	switches := 0
	prev := p.State()
	for i := 0; i < 1000; i++ {
		p.Step(r, 5)
		if p.State() != prev {
			switches++
			prev = p.State()
		}
	}
	if switches < 100 {
		t.Fatalf("regime switched only %d times in 5000s with 10s holds", switches)
	}
}

func TestProductComposes(t *testing.T) {
	a := NewRegime(2, 2, 10, 10)     // constant 2
	b := NewRegime(1.5, 1.5, 10, 10) // constant 1.5
	p := &Product{Parts: []Process{a, b}}
	r := New(10)
	if v := p.Step(r, 1); math.Abs(v-3) > 1e-12 {
		t.Fatalf("product value %v, want 3", v)
	}
	if v := p.Value(); math.Abs(v-3) > 1e-12 {
		t.Fatalf("product Value %v, want 3", v)
	}
}
