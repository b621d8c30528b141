package topo

import (
	"math"
	"strings"
	"testing"

	"repro/internal/randx"
	"repro/internal/simnet"
)

func TestScenarioShape(t *testing.T) {
	s := NewScenario(Params{Seed: 1})
	if len(s.Clients) != 22 {
		t.Errorf("clients = %d, want 22 (paper Table IV)", len(s.Clients))
	}
	if len(s.Intermediates) != 21 {
		t.Errorf("intermediates = %d, want 21 (paper Table V)", len(s.Intermediates))
	}
	if len(s.Servers) != 4 {
		t.Errorf("servers = %d, want 4", len(s.Servers))
	}
	if len(s.Sec4Clients) != 3 {
		t.Errorf("sec4 clients = %d, want 3 (Duke, Italy, Sweden)", len(s.Sec4Clients))
	}
}

func TestScenarioFullSet(t *testing.T) {
	s := NewScenario(Params{Seed: 1, NumIntermediates: 35})
	if len(s.Intermediates) != 35 {
		t.Fatalf("intermediates = %d, want 35 (Section 4 full set)", len(s.Intermediates))
	}
}

func TestScenarioTooManyIntermediatesPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewScenario(Params{Seed: 1, NumIntermediates: 99})
}

func TestScenarioDeterminism(t *testing.T) {
	a := NewScenario(Params{Seed: 7})
	b := NewScenario(Params{Seed: 7})
	for _, c := range a.Clients {
		ca, cb := a.ClientNet(c), b.ClientNet(b.FindClient(c.Name))
		if ca.DirectMean["eBay"] != cb.DirectMean["eBay"] {
			t.Fatalf("client %s directMean differs across identical scenarios", c.Name)
		}
		if ca.DirectSigma != cb.DirectSigma || ca.Variable != cb.Variable {
			t.Fatalf("client %s personality differs", c.Name)
		}
	}
	for _, in := range a.Intermediates {
		if a.InterQuality(in) != b.InterQuality(b.FindIntermediate(in.Name)) {
			t.Fatalf("intermediate %s quality differs", in.Name)
		}
	}
	pa := a.PairMean(a.Clients[0], a.Intermediates[0])
	pb := b.PairMean(b.Clients[0], b.Intermediates[0])
	if pa != pb {
		t.Fatal("pair mean differs across identical scenarios")
	}
}

func TestScenarioSeedsDiffer(t *testing.T) {
	a := NewScenario(Params{Seed: 1})
	b := NewScenario(Params{Seed: 2})
	same := 0
	for _, c := range a.Clients {
		if a.ClientNet(c).DirectMean["eBay"] == b.ClientNet(b.FindClient(c.Name)).DirectMean["eBay"] {
			same++
		}
	}
	if same == len(a.Clients) {
		t.Fatal("different seeds produced identical client means")
	}
}

func TestCategoryMeansInBand(t *testing.T) {
	s := NewScenario(Params{Seed: 3})
	for _, c := range s.Clients {
		cn := s.ClientNet(c)
		// The base mean (before per-server factors) must respect the
		// category; per-server log-normal factors can stretch it, so
		// check the geometric mean across servers within a loose band.
		gm := 1.0
		n := 0
		for _, m := range cn.DirectMean {
			gm *= m
			n++
		}
		gm = math.Pow(gm, 1/float64(n))
		switch c.Category {
		case Low:
			if gm < 0.2e6 || gm > 2.2e6 {
				t.Errorf("%s (Low): geometric mean %.2f Mb/s out of band", c.Name, gm/1e6)
			}
		case Medium:
			if gm < 1.0e6 || gm > 4.5e6 {
				t.Errorf("%s (Medium): geometric mean %.2f Mb/s out of band", c.Name, gm/1e6)
			}
		case High:
			if gm < 2.2e6 {
				t.Errorf("%s (High): geometric mean %.2f Mb/s too low", c.Name, gm/1e6)
			}
		}
	}
}

func TestOverlaySublinearInClientQuality(t *testing.T) {
	// The calibrated overlayGamma < 1 means overlay/direct ratio falls as
	// direct mean rises: high-throughput clients gain less (paper §3.3).
	s := NewScenario(Params{Seed: 4})
	var lowRatio, highRatio []float64
	for _, c := range s.Clients {
		cn := s.ClientNet(c)
		gm := 1.0
		for _, m := range cn.DirectMean {
			gm *= m
		}
		gm = math.Pow(gm, 0.25)
		ratio := cn.OverlayBase / gm
		switch c.Category {
		case Low:
			lowRatio = append(lowRatio, ratio)
		case High:
			highRatio = append(highRatio, ratio)
		}
	}
	avg := func(xs []float64) float64 {
		sum := 0.0
		for _, x := range xs {
			sum += x
		}
		return sum / float64(len(xs))
	}
	if len(lowRatio) == 0 || len(highRatio) == 0 {
		t.Fatal("missing category representatives")
	}
	if avg(lowRatio) <= avg(highRatio) {
		t.Fatalf("overlay/direct ratio: Low %.2f <= High %.2f; want Low > High",
			avg(lowRatio), avg(highRatio))
	}
}

func TestInterQualitySpread(t *testing.T) {
	s := NewScenario(Params{Seed: 5, NumIntermediates: 35})
	minQ, maxQ := math.Inf(1), math.Inf(-1)
	for _, in := range s.Intermediates {
		q := s.InterQuality(in)
		if q <= 0 {
			t.Fatalf("quality of %s is %v", in.Name, q)
		}
		minQ = math.Min(minQ, q)
		maxQ = math.Max(maxQ, q)
	}
	if maxQ/minQ < 2 {
		t.Fatalf("intermediate quality spread %.2f too narrow for Table II popularity effects", maxQ/minQ)
	}
}

func TestFindHelpers(t *testing.T) {
	s := NewScenario(Params{Seed: 6})
	if s.FindClient("Iceland") == nil {
		t.Error("FindClient(Iceland) = nil")
	}
	if s.FindClient("Duke (client)") == nil {
		t.Error("FindClient on Section 4 client = nil")
	}
	if s.FindClient("Atlantis") != nil {
		t.Error("FindClient(Atlantis) should be nil")
	}
	if s.FindIntermediate("Texas") == nil {
		t.Error("FindIntermediate(Texas) = nil")
	}
	if s.FindServer("eBay") == nil {
		t.Error("FindServer(eBay) = nil")
	}
	if s.FindServer("AltaVista") != nil {
		t.Error("FindServer(AltaVista) should be nil")
	}
}

func TestUnknownLookupsPanic(t *testing.T) {
	s := NewScenario(Params{Seed: 6})
	ghost := &Node{Name: "Ghost"}
	for name, fn := range map[string]func(){
		"ClientNet":    func() { s.ClientNet(ghost) },
		"InterQuality": func() { s.InterQuality(ghost) },
		"PairMean":     func() { s.PairMean(ghost, ghost) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestInstantiatePaths(t *testing.T) {
	s := NewScenario(Params{Seed: 8})
	eng := simnet.NewEngine()
	net := simnet.NewNetwork(eng)
	client := s.Clients[0]
	server := s.Servers[0]
	inters := s.Intermediates[:3]
	inst := s.Instantiate(net, randx.New(1), client, []*Node{server}, inters)

	dp := inst.DirectPath(server)
	if len(dp) != 3 {
		t.Fatalf("direct path has %d links, want 3", len(dp))
	}
	if dp[0] != inst.Access {
		t.Fatal("direct path must start at the access link")
	}
	ip := inst.IndirectPath(inters[1], server)
	if len(ip) != 4 {
		t.Fatalf("indirect path has %d links, want 4", len(ip))
	}
	if ip[0] != inst.Access {
		t.Fatal("indirect path must start at the access link (shared bottleneck candidate)")
	}
	if ip[len(ip)-1] != dp[len(dp)-1] {
		t.Fatal("both paths must terminate at the server access link")
	}
}

func TestInstantiateDriversVaryCapacity(t *testing.T) {
	s := NewScenario(Params{Seed: 9})
	eng := simnet.NewEngine()
	net := simnet.NewNetwork(eng)
	client := s.Clients[0]
	server := s.Servers[0]
	inst := s.Instantiate(net, randx.New(2), client, []*Node{server}, s.Intermediates[:1])

	direct := inst.DirectLink(server)
	seen := map[float64]bool{}
	for i := 0; i < 50; i++ {
		inst.Warmup(15)
		seen[direct.Capacity()] = true
	}
	if len(seen) < 20 {
		t.Fatalf("direct capacity took %d distinct values over 50 ticks; driver inert?", len(seen))
	}
	inst.Close()
	inst.Warmup(60)
	after := direct.Capacity()
	inst.Warmup(60)
	if direct.Capacity() != after {
		t.Fatal("drivers still running after Close")
	}
}

func TestInstantiateUnknownPathPanics(t *testing.T) {
	s := NewScenario(Params{Seed: 10})
	eng := simnet.NewEngine()
	net := simnet.NewNetwork(eng)
	inst := s.Instantiate(net, randx.New(3), s.Clients[0], []*Node{s.Servers[0]}, s.Intermediates[:1])
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for non-instantiated server")
		}
	}()
	inst.DirectPath(s.Servers[1])
}

func TestOverlayStabilityVsDirect(t *testing.T) {
	// Sampled over a long horizon, overlay capacity must have a smaller
	// coefficient of variation than direct capacity for a typical
	// variable client — this asymmetry powers the whole paper.
	s := NewScenario(Params{Seed: 11})
	var client *Node
	for _, c := range s.Clients {
		if s.ClientNet(c).Variable {
			client = c
			break
		}
	}
	if client == nil {
		t.Skip("no variable client in this seed")
	}
	eng := simnet.NewEngine()
	net := simnet.NewNetwork(eng)
	server := s.Servers[0]
	inter := s.Intermediates[0]
	inst := s.Instantiate(net, randx.New(4), client, []*Node{server}, []*Node{inter})

	cv := func(l *simnet.Link) float64 {
		var sum, sumSq float64
		const n = 2000
		for i := 0; i < n; i++ {
			inst.Warmup(15)
			c := l.Capacity()
			sum += c
			sumSq += c * c
		}
		mean := sum / n
		return math.Sqrt(sumSq/n-mean*mean) / mean
	}
	cvDirect := cv(inst.DirectLink(server))
	// Re-instantiate to sample overlay over the same horizon shape.
	cvOverlay := cv(inst.OverlayLink(inter))
	if cvOverlay >= cvDirect {
		t.Fatalf("overlay CV %.3f >= direct CV %.3f; want overlay more stable", cvOverlay, cvDirect)
	}
}

func TestDescribe(t *testing.T) {
	s := NewScenario(Params{Seed: 42})
	var b strings.Builder
	s.Describe(&b)
	out := b.String()
	for _, want := range []string{"Scenario seed=42", "clients:", "intermediates", "Korea", "MIT"} {
		if !strings.Contains(out, want) {
			t.Errorf("Describe output missing %q", want)
		}
	}
}
