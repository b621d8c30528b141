// Quickstart: one simulated client selecting between the direct path and
// two indirect paths for a single 4 MB download, driven through the
// repro.Client facade.
//
// It builds a PlanetLab-like scenario, instantiates the client's network,
// probes all three paths with the paper's 100 KB range request, fetches
// the remainder over the winner, and prints what happened. The same
// Client API drives real TCP: swap the simulated world for a
// repro.RealTransport and add repro.WithTimeout / repro.WithRetry.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"sort"

	"repro"
	"repro/internal/httpsim"
	"repro/internal/randx"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// printLifecycle lists what the operation did, in time order, read off
// its Outcome: every probe's start and end, the commit, and the
// remainder.
func printLifecycle(out repro.Outcome) {
	type step struct {
		t    float64
		what string
		path repro.Path
	}
	var steps []step
	for _, p := range out.Probes {
		steps = append(steps, step{p.Start, "probe-start", p.Path}, step{p.End, "probe-end", p.Path})
	}
	r := out.Remainder
	steps = append(steps, step{out.ProbeEnd, "selection", out.Selected},
		step{r.Start, "transfer-start", r.Path}, step{r.End, "transfer-end", r.Path})
	sort.SliceStable(steps, func(i, j int) bool { return steps[i].t < steps[j].t })
	for _, s := range steps {
		fmt.Printf("  t=%6.2fs %-14s %s\n", s.t, s.what, s.path)
	}
}

func main() {
	// A deterministic scenario: 22 international clients, 21 US
	// intermediates, 4 origin servers, as in the paper's Tables IV/V.
	scen := topo.NewScenario(topo.Params{Seed: 2007})
	client := scen.FindClient("Korea") // a Low-throughput client
	server := scen.FindServer("eBay")
	inters := []*topo.Node{
		scen.FindIntermediate("Berkeley"),
		scen.FindIntermediate("Princeton"),
	}

	// Bind the client's links (with stochastic capacity drivers) to a
	// fresh virtual-time network.
	eng := simnet.NewEngine()
	net := simnet.NewNetwork(eng)
	inst := scen.Instantiate(net, randx.New(1), client, []*topo.Node{server}, inters)
	world := httpsim.NewWorld(inst, []*topo.Node{server}, inters)
	world.Put("eBay", "large.bin", 4_000_000)
	inst.Warmup(300) // let link conditions decorrelate from their means

	// The facade binds the transport to a probe/selection configuration.
	// The simulator runs in virtual time, so wall-clock options like
	// WithTimeout are omitted here; on a RealTransport they bound the
	// transfer and cancel its connections. The client's built-in Metrics
	// collector folds every finished operation.
	c := repro.New(world, repro.WithProbeBytes(repro.DefaultProbeBytes))

	obj := repro.Object{Server: "eBay", Name: "large.bin", Size: 4_000_000}
	out := c.SelectAndFetch(context.Background(), obj, []string{"Berkeley", "Princeton"})
	if out.Err != nil {
		panic(out.Err)
	}
	fmt.Println("selection lifecycle:")
	printLifecycle(out)

	fmt.Printf("\nclient %s downloading %d bytes from %s\n", client.Name, obj.Size, server.Name)
	fmt.Println("probe results (first 100 KB on every path):")
	for _, p := range out.Probes {
		fmt.Printf("  %-16s %6.2f Mb/s (finished at t=%.2fs)\n",
			p.Path, p.Throughput()/1e6, p.End)
	}
	fmt.Printf("selected path:    %s\n", out.Selected)
	fmt.Printf("total transfer:   %.1fs end to end -> %.2f Mb/s\n",
		out.Duration(), out.Throughput()/1e6)
	fmt.Printf("probing overhead: %.2fs of the total\n", out.ProbeEnd-out.Start)

	// What the metrics collector aggregated: per-path counters
	// (utilization = selected/probed).
	snap := c.Snapshot()
	fmt.Println("\nmetrics:")
	for _, label := range snap.PathLabels() {
		ps := snap.Paths[label]
		fmt.Printf("  %-16s probed %d, selected %d (utilization %.0f%%)\n",
			label, ps.Probed, ps.Selected, 100*ps.Utilization)
	}
}
