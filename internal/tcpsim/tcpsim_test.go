package tcpsim

import (
	"math"
	"testing"

	"repro/internal/randx"
	"repro/internal/tcpmodel"
)

func TestLossFreeUtilization(t *testing.T) {
	// A long transfer over a clean path must achieve most of the
	// bottleneck rate. Slow-start overshoot may still overflow the queue
	// (as in real TCP) — that recovery must not wreck utilization.
	cfg := Config{BottleneckBps: 4e6, RTT: 0.1}
	res := Transfer(cfg, 8_000_000, nil)
	util := res.Throughput() / cfg.BottleneckBps
	if util < 0.80 || util > 1.0+1e-9 {
		t.Fatalf("utilization %.2f, want [0.80, 1] (%+v)", util, res)
	}
}

func TestNoDropsWhenWindowFitsPipe(t *testing.T) {
	// With the window capped below BDP + queue, nothing can overflow:
	// genuinely zero-recovery operation.
	cfg := Config{BottleneckBps: 4e6, RTT: 0.1, MaxWindow: 64, QueuePackets: 256}
	res := Transfer(cfg, 8_000_000, nil)
	if res.Timeouts != 0 || res.Retransmits != 0 || res.QueueDrops != 0 {
		t.Fatalf("bounded window still suffered recovery: %+v", res)
	}
}

func TestNeverExceedsBottleneck(t *testing.T) {
	for _, bps := range []float64{0.5e6, 2e6, 10e6} {
		res := Transfer(Config{BottleneckBps: bps, RTT: 0.05}, 4_000_000, nil)
		if res.Throughput() > bps*(1+1e-9) {
			t.Fatalf("throughput %.0f exceeds bottleneck %.0f", res.Throughput(), bps)
		}
	}
}

func TestSlowStartPenalizesShortTransfers(t *testing.T) {
	cfg := Config{BottleneckBps: 8e6, RTT: 0.2}
	short := Transfer(cfg, 50_000, nil)
	long := Transfer(cfg, 8_000_000, nil)
	if short.Throughput() >= 0.5*long.Throughput() {
		t.Fatalf("short transfer rate %.0f not well below long %.0f",
			short.Throughput(), long.Throughput())
	}
}

func TestRandomLossTriggersRecovery(t *testing.T) {
	cfg := Config{BottleneckBps: 8e6, RTT: 0.05, Loss: 0.01}
	res := Transfer(cfg, 4_000_000, randx.New(1))
	if res.RandomDrops == 0 {
		t.Fatal("no random drops at 1% loss over ~2700 segments")
	}
	if res.Retransmits == 0 && res.Timeouts == 0 {
		t.Fatal("drops occurred but no recovery happened")
	}
	// Loss must cost throughput.
	clean := Transfer(Config{BottleneckBps: 8e6, RTT: 0.05}, 4_000_000, nil)
	if res.Throughput() >= clean.Throughput() {
		t.Fatalf("lossy %.0f >= clean %.0f", res.Throughput(), clean.Throughput())
	}
}

func TestMathisBallpark(t *testing.T) {
	// With moderate loss, steady-state throughput should sit within a
	// small factor of the Mathis ceiling MSS/(RTT*sqrt(2p/3)).
	p := 0.005
	cfg := Config{BottleneckBps: 100e6, RTT: 0.08, Loss: p}
	res := Transfer(cfg, 20_000_000, randx.New(2))
	mathis := tcpmodel.Params{RTT: cfg.RTT, Loss: p}.LossCeiling()
	ratio := res.Throughput() / mathis
	if ratio < 0.25 || ratio > 3.0 {
		t.Fatalf("packet-level throughput %.2f Mb/s vs Mathis %.2f Mb/s (ratio %.2f)",
			res.Throughput()/1e6, mathis/1e6, ratio)
	}
}

func TestTinyQueueLimitsThroughput(t *testing.T) {
	// A 2-packet queue forces overflow drops once the window exceeds the
	// pipe, costing throughput relative to a deep queue.
	deep := Transfer(Config{BottleneckBps: 8e6, RTT: 0.1, QueuePackets: 256}, 6_000_000, nil)
	shallow := Transfer(Config{BottleneckBps: 8e6, RTT: 0.1, QueuePackets: 2}, 6_000_000, nil)
	if shallow.QueueDrops == 0 {
		t.Fatal("no queue drops with a 2-packet buffer")
	}
	if shallow.Throughput() >= deep.Throughput() {
		t.Fatalf("shallow queue %.0f >= deep queue %.0f", shallow.Throughput(), deep.Throughput())
	}
}

func TestDeterminism(t *testing.T) {
	cfg := Config{BottleneckBps: 4e6, RTT: 0.08, Loss: 0.005}
	a := Transfer(cfg, 2_000_000, randx.New(7))
	b := Transfer(cfg, 2_000_000, randx.New(7))
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestFluidModelAgreement is the validation the package exists for: on a
// clean, uncontended path the fluid model's transfer time must track the
// packet-level simulation within a modest tolerance.
func TestFluidModelAgreement(t *testing.T) {
	cases := []struct {
		bps   float64
		rtt   float64
		bytes int64
	}{
		{2e6, 0.1, 4_000_000},
		{8e6, 0.05, 4_000_000},
		{1e6, 0.2, 2_000_000},
		{4e6, 0.15, 8_000_000},
	}
	for _, c := range cases {
		pkt := Transfer(Config{BottleneckBps: c.bps, RTT: c.rtt}, c.bytes, nil)
		// The fluid model caps the rate at min(window ceiling, link);
		// emulate the link cap by clamping.
		p := tcpmodel.Params{RTT: c.rtt}
		fluidCeiling := math.Min(p.Ceiling(), c.bps)
		fluid := fluidTransferTime(p, fluidCeiling, c.bytes)
		ratio := pkt.Duration / fluid
		if ratio < 0.75 || ratio > 1.6 {
			t.Errorf("bps=%.0f rtt=%.2f bytes=%d: packet %.2fs vs fluid %.2fs (ratio %.2f)",
				c.bps, c.rtt, c.bytes, pkt.Duration, fluid, ratio)
		}
	}
}

// fluidTransferTime mirrors tcpmodel.TransferTime with an explicit rate
// ceiling (the fluid simulator's link cap).
func fluidTransferTime(p tcpmodel.Params, ceiling float64, bytes int64) float64 {
	bits := float64(bytes) * 8
	rate := math.Min(p.InitialRate(), ceiling)
	const sub = 4
	interval := p.RTT / sub
	factor := math.Pow(2, 1.0/sub)
	t := 0.0
	for rate < ceiling {
		step := rate * interval
		if bits <= step {
			return t + bits/rate
		}
		bits -= step
		t += interval
		rate *= factor
	}
	return t + bits/ceiling
}

func TestZeroBytes(t *testing.T) {
	res := Transfer(Config{BottleneckBps: 1e6, RTT: 0.1}, 0, nil)
	if res.Duration != 0 || res.Segments != 0 {
		t.Fatalf("zero-byte transfer: %+v", res)
	}
}

func TestBadConfigPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Transfer(Config{BottleneckBps: 0, RTT: 0.1}, 100, nil)
}

func TestMaxWindowCap(t *testing.T) {
	// A tiny window over a long RTT caps throughput at W/RTT.
	cfg := Config{BottleneckBps: 100e6, RTT: 0.2, MaxWindow: 10, QueuePackets: 256}
	res := Transfer(cfg, 4_000_000, nil)
	cap := 10.0 * 1460 * 8 / 0.2 // segments per RTT
	if res.Throughput() > cap*1.15 {
		t.Fatalf("throughput %.0f exceeds window cap %.0f", res.Throughput(), cap)
	}
	if res.MaxCwnd > 10+1e-9 {
		t.Fatalf("cwnd %v exceeded MaxWindow", res.MaxCwnd)
	}
}

func TestTwoFlowsShareRoughlyFairly(t *testing.T) {
	// Two long identical transfers through one bottleneck: each should
	// receive a comparable share, the behavior the fluid simulator's
	// max-min allocation assumes. TCP fairness is coarse — allow a wide
	// but bounded ratio.
	cfg := Config{BottleneckBps: 8e6, RTT: 0.08}
	rs := TransferN(cfg, []int64{10_000_000, 10_000_000}, randx.New(3))
	a, b := rs[0].Throughput(), rs[1].Throughput()
	ratio := a / b
	if ratio < 1 {
		ratio = 1 / ratio
	}
	if ratio > 1.6 {
		t.Fatalf("fairness ratio %.2f (flows %.2f vs %.2f Mb/s)", ratio, a/1e6, b/1e6)
	}
	// Aggregate must use the pipe well.
	agg := float64(20_000_000*8) / math.Max(rs[0].Duration, rs[1].Duration)
	if agg < 0.7*cfg.BottleneckBps {
		t.Fatalf("aggregate %.2f Mb/s underuses 8 Mb/s bottleneck", agg/1e6)
	}
}

func TestShortFlowFinishesFirstAndFreesBandwidth(t *testing.T) {
	cfg := Config{BottleneckBps: 8e6, RTT: 0.05}
	rs := TransferN(cfg, []int64{500_000, 8_000_000}, randx.New(4))
	if rs[0].Duration >= rs[1].Duration {
		t.Fatalf("short flow (%.2fs) did not finish before long flow (%.2fs)",
			rs[0].Duration, rs[1].Duration)
	}
	// The long flow should still achieve a healthy share of the pipe
	// overall (it runs alone after the short one finishes).
	if rs[1].Throughput() < 0.5*cfg.BottleneckBps {
		t.Fatalf("long flow got only %.2f Mb/s", rs[1].Throughput()/1e6)
	}
}

func TestTransferNMatchesTransferForSingleFlow(t *testing.T) {
	cfg := Config{BottleneckBps: 4e6, RTT: 0.1, Loss: 0.002}
	single := Transfer(cfg, 3_000_000, randx.New(9))
	viaN := TransferN(cfg, []int64{3_000_000}, randx.New(9))[0]
	if single != viaN {
		t.Fatalf("Transfer and TransferN diverge:\n%+v\n%+v", single, viaN)
	}
}

func TestTransferNZeroSizeSkipped(t *testing.T) {
	rs := TransferN(Config{BottleneckBps: 1e6, RTT: 0.1}, []int64{0, 100_000}, nil)
	if rs[0].Duration != 0 || rs[0].Segments != 0 {
		t.Fatalf("zero-size flow: %+v", rs[0])
	}
	if rs[1].Duration <= 0 {
		t.Fatal("real flow did not run")
	}
}

func TestFourFlowAggregateFairness(t *testing.T) {
	cfg := Config{BottleneckBps: 12e6, RTT: 0.06, QueuePackets: 128}
	sizes := []int64{6_000_000, 6_000_000, 6_000_000, 6_000_000}
	rs := TransferN(cfg, sizes, randx.New(5))
	min, max := math.Inf(1), 0.0
	for _, r := range rs {
		tp := r.Throughput()
		min = math.Min(min, tp)
		max = math.Max(max, tp)
	}
	if max/min > 2.2 {
		t.Fatalf("4-flow fairness spread %.2f too wide (%.2f..%.2f Mb/s)",
			max/min, min/1e6, max/1e6)
	}
}
