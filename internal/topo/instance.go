package topo

import (
	"repro/internal/randx"
	"repro/internal/simnet"
)

// Instance is one client's view of the network, realized as simnet links
// with stochastic capacity drivers attached. Experiments create one
// Instance per campaign (client × candidate intermediates × servers); the
// paper's client nodes likewise ran independent measurement processes.
type Instance struct {
	Scenario *Scenario
	Client   *Node
	Net      *simnet.Network

	Access    *simnet.Link
	direct    map[string]*simnet.Link // server -> international transit
	overlay   map[string]*simnet.Link // intermediate -> overlay link
	usTransit map[string]*simnet.Link // intermediate -> US transit toward servers
	serverAcc map[string]*simnet.Link // server -> access link

	stops []func()
}

// Instantiate builds the client's links on net, attaching capacity drivers
// seeded from rng. Only the listed intermediates and servers get links, so
// small campaigns stay cheap. The same client can be instantiated many
// times with different RNGs to realize independent measurement days.
func (s *Scenario) Instantiate(net *simnet.Network, rng *randx.RNG, client *Node, servers, inters []*Node) *Instance {
	cn := s.ClientNet(client)
	in := &Instance{
		Scenario:  s,
		Client:    client,
		Net:       net,
		direct:    make(map[string]*simnet.Link),
		overlay:   make(map[string]*simnet.Link),
		usTransit: make(map[string]*simnet.Link),
		serverAcc: make(map[string]*simnet.Link),
	}

	// Client access link: fixed capacity. For shared-bottleneck clients it
	// sits barely above the direct mean, so it throttles indirect paths
	// just like the direct one.
	in.Access = net.NewLink("access/"+client.Name, cn.AccessCapacity, cn.AccessLatency, 1e-5)

	// Direct international transit per server: OU base with regime
	// congestion episodes. This is the paper's "highly variable direct
	// path".
	theta := directTheta
	if cn.DirectTheta > 0 {
		theta = cn.DirectTheta
	}
	for _, sv := range servers {
		mean := cn.DirectMean[sv.Name]
		l := net.NewLink("direct/"+client.Name+"->"+sv.Name, mean, cn.TransitLatency, cn.TransitLoss)
		proc := &randx.Product{Parts: []randx.Process{
			randx.NewOU(mean, theta, cn.DirectSigma),
			randx.NewRegime(1.0, cn.BusyLevel, cn.QuietHold, cn.BusyHold),
		}}
		stop := l.Drive(proc, driveInterval, 1.0, rng.Fork("direct/"+client.Name+"/"+sv.Name))
		in.direct[sv.Name] = l
		in.stops = append(in.stops, stop)
	}

	// Overlay links to each candidate intermediate: stable OU around the
	// pair mean with rare shallow dips (paper §3.3: indirect throughput
	// shows "no discernable uptrend or downtrend", only "a few small
	// jumps").
	for _, inter := range inters {
		mean := s.PairMean(client, inter)
		lat := s.pairLatency[client.Name+"|"+inter.Name]
		l := net.NewLink("overlay/"+client.Name+"->"+inter.Name, mean, lat, 5e-5)
		proc := &randx.Product{Parts: []randx.Process{
			randx.NewOU(mean, 1.0/600, overlaySigma),
			// Rare, short collapses: the paper attributes the residual
			// penalties on low-variability clients to indirect-path
			// throughput drops after the route decision is made.
			randx.NewRegime(1.0, 0.35, 7200, 120),
		}}
		stop := l.Drive(proc, driveInterval, 1.0, rng.Fork("overlay/"+client.Name+"/"+inter.Name))
		in.overlay[inter.Name] = l
		in.stops = append(in.stops, stop)

		// US transit from the intermediate toward the servers: fat and
		// calm; never the indirect bottleneck (paper §3.2 argues the
		// client–intermediate hop dominates).
		usMean := (30 + 50*s.InterQuality(inter)) * mbps
		ul := net.NewLink("us/"+inter.Name, usMean, s.interLatency[inter.Name], 1e-5)
		ustop := ul.Drive(randx.NewOU(usMean, 1.0/600, 0.10), driveInterval, 1.0,
			rng.Fork("us/"+client.Name+"/"+inter.Name))
		in.usTransit[inter.Name] = ul
		in.stops = append(in.stops, ustop)
	}

	// Server access links: production sites with ample headroom.
	for _, sv := range servers {
		in.serverAcc[sv.Name] = net.NewLink("server/"+sv.Name, 200*mbps, 0.002, 1e-6)
	}
	return in
}

// DirectPath returns the link sequence of the client's direct path to the
// server. It panics if the server was not instantiated.
func (in *Instance) DirectPath(server *Node) []*simnet.Link {
	d, ok := in.direct[server.Name]
	if !ok {
		panic("topo: server not instantiated: " + server.Name)
	}
	return []*simnet.Link{in.Access, d, in.serverAcc[server.Name]}
}

// IndirectPath returns the link sequence via the given intermediate. It
// panics if the intermediate or server was not instantiated.
func (in *Instance) IndirectPath(inter, server *Node) []*simnet.Link {
	ov, ok := in.overlay[inter.Name]
	if !ok {
		panic("topo: intermediate not instantiated: " + inter.Name)
	}
	sa, ok := in.serverAcc[server.Name]
	if !ok {
		panic("topo: server not instantiated: " + server.Name)
	}
	return []*simnet.Link{in.Access, ov, in.usTransit[inter.Name], sa}
}

// DirectLink exposes the direct transit link for inspection in tests.
func (in *Instance) DirectLink(server *Node) *simnet.Link { return in.direct[server.Name] }

// OverlayLink exposes the overlay link for inspection in tests.
func (in *Instance) OverlayLink(inter *Node) *simnet.Link { return in.overlay[inter.Name] }

// Warmup advances the network by d seconds so the stochastic drivers leave
// their deterministic starting points before measurement begins.
func (in *Instance) Warmup(d float64) { in.Net.Engine().RunFor(d) }

// Close detaches all capacity drivers, letting the engine drain.
func (in *Instance) Close() {
	for _, stop := range in.stops {
		stop()
	}
	in.stops = nil
}
