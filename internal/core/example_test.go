package core_test

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/httpsim"
	"repro/internal/randx"
	"repro/internal/simnet"
	"repro/internal/topo"
)

// ExampleSelectAndFetch shows the paper's client operation end to end on
// the simulated network: probe the direct path and two relays with a
// 100 KB range request, commit to the winner, fetch the rest.
func ExampleSelectAndFetch() {
	scen := topo.NewScenario(topo.Params{Seed: 2007})
	client := scen.FindClient("Korea")
	server := scen.FindServer("eBay")
	inters := []*topo.Node{
		scen.FindIntermediate("Berkeley"),
		scen.FindIntermediate("Princeton"),
	}

	eng := simnet.NewEngine()
	net := simnet.NewNetwork(eng)
	inst := scen.Instantiate(net, randx.New(1), client, []*topo.Node{server}, inters)
	world := httpsim.NewWorld(inst, []*topo.Node{server}, inters)
	world.Put("eBay", "large.bin", 4_000_000)
	inst.Warmup(300)

	obj := core.Object{Server: "eBay", Name: "large.bin", Size: 4_000_000}
	out := core.SelectAndFetch(context.Background(), world, obj, []string{"Berkeley", "Princeton"}, core.Config{})
	fmt.Println("selected:", out.Selected)
	fmt.Println("probes run:", len(out.Probes))
	fmt.Println("completed:", out.Err == nil)
	// Output:
	// selected: direct
	// probes run: 3
	// completed: true
}

// ExampleImprovement demonstrates the paper's improvement metric.
func ExampleImprovement() {
	fmt.Printf("%.0f%%\n", core.Improvement(2e6, 1e6)) // doubled throughput
	fmt.Printf("%.0f%%\n", core.Improvement(5e5, 1e6)) // halved
	fmt.Printf("%.0f%%\n", core.Penalty(1e6, 4e6))     // 4x slower as a penalty
	// Output:
	// 100%
	// -50%
	// 300%
}

// ExampleTracker shows utilization accounting across transfers.
func ExampleTracker() {
	tr := core.NewTracker()
	tr.Observe([]string{"MIT", "Texas"}, core.Path{Via: "MIT"})
	tr.Observe([]string{"MIT", "Texas"}, core.Path{Via: core.Direct})
	tr.Observe([]string{"MIT"}, core.Path{Via: "MIT"})
	fmt.Printf("MIT utilization: %.2f\n", tr.Utilization("MIT"))
	fmt.Printf("Texas utilization: %.2f\n", tr.Utilization("Texas"))
	// Output:
	// MIT utilization: 0.67
	// Texas utilization: 0.00
}
