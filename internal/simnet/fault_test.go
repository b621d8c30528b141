package simnet

import (
	"math"
	"testing"

	"repro/internal/randx"
)

// faultTrace runs one flow over a faulted link and returns its completion
// time plus the sequence of effective-loss values sampled each second.
func faultTrace(t *testing.T, seed uint64, prof FaultProfile) (done float64, losses []float64) {
	t.Helper()
	eng := NewEngine()
	net := NewNetwork(eng)
	l := net.NewLink("wan", 8e6, 0.02, 0)
	f := l.InjectFaults(prof, 0.25, randx.New(seed))
	defer f.Stop()

	finished := -1.0
	net.StartFlow(FlowSpec{
		Label: "xfer", Links: []*Link{l}, Bytes: 4 << 20,
		OnComplete: func(fl *Flow) { finished = eng.Now() },
	})
	for i := 0; i < 60; i++ {
		eng.RunUntil(float64(i + 1))
		losses = append(losses, f.EffectiveLoss())
		if finished >= 0 {
			break
		}
	}
	if finished < 0 {
		t.Fatalf("flow never completed (seed %d)", seed)
	}
	return finished, losses
}

func TestFaultsDeterministic(t *testing.T) {
	prof := FaultProfile{
		Loss:    0.01,
		Reorder: 0.05,
		Dup:     0.02,
		Burst:   &GEParams{MeanGood: 2, MeanBad: 0.5, LossGood: 0.001, LossBad: 0.3},
	}
	d1, l1 := faultTrace(t, 7, prof)
	d2, l2 := faultTrace(t, 7, prof)
	if d1 != d2 {
		t.Fatalf("same seed, different completion times: %v vs %v", d1, d2)
	}
	if len(l1) != len(l2) {
		t.Fatalf("same seed, different trace lengths: %d vs %d", len(l1), len(l2))
	}
	for i := range l1 {
		if l1[i] != l2[i] {
			t.Fatalf("same seed, loss traces diverge at %d: %v vs %v", i, l1[i], l2[i])
		}
	}
	d3, _ := faultTrace(t, 8, prof)
	if d3 == d1 {
		t.Fatalf("different seeds produced identical completion time %v", d1)
	}
}

func TestFaultsSlowFlows(t *testing.T) {
	eng := NewEngine()
	net := NewNetwork(eng)
	l := net.NewLink("wan", 8e6, 0.02, 0)

	run := func() float64 {
		done := -1.0
		net.StartFlow(FlowSpec{
			Label: "xfer", Links: []*Link{l}, Bytes: 1 << 20,
			OnComplete: func(fl *Flow) { done = eng.Now() - fl.Start() },
		})
		eng.RunWhile(func() bool { return done < 0 })
		return done
	}

	clean := run()

	// 20% steady loss with reorder and duplication: goodput efficiency
	// (1−0.2)·(1−0.05)·/(1.1) ≈ 0.69, so the same transfer should take
	// noticeably longer — and close to 1/efficiency times as long.
	prof := FaultProfile{Loss: 0.2, Reorder: 0.1, Dup: 0.1}
	f := l.InjectFaults(prof, 0.5, randx.New(1))
	faulted := run()
	f.Stop()

	wantRatio := 1 / prof.efficiency(0.2)
	gotRatio := faulted / clean
	if gotRatio < wantRatio*0.95 || gotRatio > wantRatio*1.05 {
		t.Fatalf("faulted/clean duration ratio = %.3f, want ≈ %.3f (clean %.3fs faulted %.3fs)",
			gotRatio, wantRatio, clean, faulted)
	}

	// After Stop the link is clean again.
	restored := run()
	if restored > clean*1.01 {
		t.Fatalf("Stop did not restore clean throughput: %.3fs vs %.3fs", restored, clean)
	}
}

func TestFaultsDriveLinkLoss(t *testing.T) {
	eng := NewEngine()
	net := NewNetwork(eng)
	l := net.NewLink("wan", 8e6, 0.02, 0)
	f := l.InjectFaults(FaultProfile{
		Loss:  0.01,
		Burst: &GEParams{MeanGood: 1, MeanBad: 1, LossGood: 0.0, LossBad: 0.5},
	}, 0.1, randx.New(3))
	defer f.Stop()

	// The link's Loss field (what tcpmodel.FromLinks consumes) must track
	// the chain: composed loss is 0.01 in the good state, 0.505 in the
	// bad state, and over 30 s of a symmetric chain both states occur.
	sawGood, sawBad := false, false
	for i := 0; i < 300; i++ {
		eng.RunUntil(float64(i) * 0.1)
		switch {
		case math.Abs(l.Loss-0.01) < 1e-12:
			sawGood = true
		case math.Abs(l.Loss-(1-0.99*0.5)) < 1e-12:
			sawBad = true
		default:
			t.Fatalf("unexpected composed loss %v", l.Loss)
		}
	}
	if !sawGood || !sawBad {
		t.Fatalf("chain never visited both states (good %v bad %v)", sawGood, sawBad)
	}
}

// TestBurstLossIsBurstier matches a Gilbert–Elliott chain against an
// independent-loss profile with the same stationary mean, and checks the
// link's loss, averaged per window, has higher variance under the chain:
// loss clusters into the bad state's sojourns instead of holding steady.
func TestBurstLossIsBurstier(t *testing.T) {
	ge := &GEParams{MeanGood: 4, MeanBad: 1, LossGood: 0.0, LossBad: 0.5}
	mean := ge.MeanLoss()
	if math.Abs(mean-0.1) > 1e-12 {
		t.Fatalf("stationary mean = %v, want 0.1", mean)
	}

	variance := func(prof FaultProfile) (meanRate, varRate float64) {
		eng := NewEngine()
		net := NewNetwork(eng)
		l := net.NewLink("wan", 8e6, 0.02, 0)
		f := l.InjectFaults(prof, 0.25, randx.New(11))
		defer f.Stop()

		// Each window is one second, read at each of the chain's four steps.
		const windows, perWindow = 200, 4
		rates := make([]float64, 0, windows)
		for w := 0; w < windows; w++ {
			var loss float64
			for i := 1; i <= perWindow; i++ {
				eng.RunUntil(float64(w) + float64(i)/perWindow)
				loss += l.Loss
			}
			rates = append(rates, loss/perWindow)
		}
		for _, r := range rates {
			meanRate += r
		}
		meanRate /= windows
		for _, r := range rates {
			varRate += (r - meanRate) * (r - meanRate)
		}
		varRate /= windows
		return
	}

	bMean, bVar := variance(FaultProfile{Burst: ge})
	iMean, iVar := variance(FaultProfile{Loss: mean})

	if math.Abs(bMean-iMean) > 0.05 {
		t.Fatalf("mean loss rates not matched: burst %.3f vs independent %.3f", bMean, iMean)
	}
	if bVar <= 3*iVar || bVar < 1e-3 {
		t.Fatalf("burst loss not burstier: var %.5f vs independent %.5f", bVar, iVar)
	}
}
