// Command bench is the repo's benchmark: four loopback workloads driven
// through the public functions of repro, realnet, relay, objcache,
// registry and httpx, with the servers in-process on 127.0.0.1:0.
//
//	go run -C bench .                      every workload, one process each
//	go run -C bench . --trace 1            the same, traced, with the layer ladder
//	go run -C bench . --workload cache_zipf --seed 7 --seconds 24 --trace 0
//	go run -C bench . --ladder             only the layer ladder
//	go run -C bench . --selfcheck          the noise self-test
//
// A single-workload run ends with one JSON line holding its metrics; see
// README.md for the glossary and BENCHMARK.json for the contract.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"maps"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// defaultSeconds is BENCHMARK.json's run_seconds.
const defaultSeconds = 24

// tracedShare is the part of a traced run's seconds its windows get; the
// ladder, which is fixed work, takes about the rest.
const tracedShare = 0.6

// metricValue is one metric in a run's final JSON line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is a run's final JSON line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "run this one workload in this process (default: each in its own process)")
	seed := flag.Int64("seed", 1, "seed of the workload's inputs")
	seconds := flag.Float64("seconds", defaultSeconds, "length of a workload's timed phase")
	trace := flag.Int("trace", 0, "1: traced windows beside untraced ones, the layer ladder, per-layer metrics")
	ladderOnly := flag.Bool("ladder", false, "run only the layer ladder")
	selfcheck := flag.Bool("selfcheck", false, "run every workload twice and compare the two sets against the bounds")
	out := flag.String("out", "out", "directory for the trace files")
	flag.Parse()
	if flag.NArg() > 0 || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	// One P for the client and the in-process servers together. Every
	// workload is one client's chain of loopback exchanges; on two Ps the
	// chain bounces between the box's two shared vCPUs, and how it bounces
	// was most of the run-to-run spread (registry_churn: 7-10% on a quiet
	// box and 40-55% on a busy one, against 1-2% on one P, where it also
	// runs a quarter faster). What a layer costs in CPU shows just the same.
	runtime.GOMAXPROCS(1)
	cfg := runConfig{seed: *seed, seconds: *seconds, scale: 1, trace: *trace == 1}

	var err error
	switch {
	case *ladderOnly:
		err = ladderMain(cfg)
	case *selfcheck:
		err = selfcheckMain(cfg, *out)
	case *workload == "":
		err = allMain(cfg, *out)
	default:
		err = workloadMain(*workload, cfg, *out)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		os.Exit(1)
	}
}

func findWorkload(name string) (workloadDef, error) {
	for _, d := range defs {
		if d.name == name {
			return d, nil
		}
	}
	return workloadDef{}, fmt.Errorf("unknown workload %q", name)
}

// workloadMain runs one workload in this process, prints its report and,
// as the last line, its result.
func workloadMain(name string, cfg runConfig, out string) error {
	def, err := findWorkload(name)
	if err != nil {
		return err
	}
	var ladder map[string]float64
	var tr *tracer
	if cfg.trace {
		if ladder, err = runLadder(cfg); err != nil {
			return fmt.Errorf("ladder: %w", err)
		}
		cfg.seconds *= tracedShare
		tr = newTracer()
	}
	rep, err := runWorkload(def, cfg, tr)
	if err != nil {
		return err
	}
	rep.print()
	res := result{Correct: rep.correct(), Metrics: map[string]metricValue{}}
	res.Attempted, res.Failed = rep.attempted()
	if cfg.trace {
		path := filepath.Join(out, "trace-"+def.name+".jsonl")
		if err := tr.write(path); err != nil {
			return err
		}
		layers := layerMetrics(ladder, rep)
		printLayers(layers)
		fmt.Printf("spans of the traced windows (%s):\n", path)
		tr.printSummary()
		for _, m := range perLayer {
			res.Metrics[m.Name] = metricValue{layers[m.Name], m.Unit}
		}
	} else {
		quartiles := map[string][3]float64{}
		for _, m := range endToEnd {
			value, q1, q3 := rep.endToEndMetric(m)
			res.Metrics[m.Name] = metricValue{value, m.Unit}
			quartiles[m.Name] = [3]float64{q1, value, q3}
		}
		// For -selfcheck, which wants the trial spread beside the values.
		line, _ := json.Marshal(quartiles)
		fmt.Printf("quartiles %s\n", line)
	}
	for name, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("metric %s is %v", name, m.Value)
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Println(string(line))
	if !res.Correct {
		return fmt.Errorf("%s: %d of %d operations failed", def.name, res.Failed, res.Attempted)
	}
	return nil
}

// layerMetrics joins the ladder's rungs with the workload's counters. A
// counter of a layer the workload bypasses is 0.
func layerMetrics(ladder map[string]float64, rep *report) map[string]float64 {
	layers := map[string]float64{}
	for _, m := range perLayer {
		layers[m.Name] = 0
	}
	maps.Copy(layers, ladder)
	maps.Copy(layers, rep.counters)
	layers["bench.trace_overhead_pct"] = rep.traceOverheadPct()
	return layers
}

func printLayers(layers map[string]float64) {
	fmt.Println("per-layer metrics (ladder rungs: median of 5 passes; counters: this workload's timed phase):")
	for _, m := range perLayer {
		fmt.Printf("  %-36s %14.4f %s\n", m.Name, layers[m.Name], m.Unit)
	}
	// Each rung as a share of the rung beneath it, at both sizes.
	fmt.Println("ladder, each rung against the one beneath:")
	chains := [][]string{
		{"host.loopback_MBps_8M", "relay.writerange_MBps", "relay.origin_MBps_8M", "relay.forward_MBps_8M", "realnet.relayed_warm_MBps_8M"},
		{"relay.origin_MBps_8M", "realnet.direct_warm_MBps_8M"},
		{"host.loopback_rtt_us", "relay.origin_us_128K", "relay.forward_us_128K", "realnet.relayed_cold_us_128K"},
		{"relay.origin_us_128K", "realnet.direct_warm_us_128K", "realnet.direct_cold_us_128K"},
		{"relay.cache_hit_us_128K", "relay.cache_miss_us_128K"},
	}
	for _, chain := range chains {
		for i := 1; i < len(chain); i++ {
			fmt.Printf("  %-30s = %6.2f x %s\n", chain[i], layers[chain[i]]/layers[chain[i-1]], chain[i-1])
		}
	}
}

// print writes the human-readable report of one workload run.
func (r *report) print() {
	ops, failed := r.attempted()
	fmt.Printf("workload %s: seed %d, %.1f s timed, traced %v\n", r.def.name, r.cfg.seed, r.cfg.seconds, r.cfg.trace)
	fmt.Printf("machine: %s\n", r.shape)
	perTrial := make([]string, len(r.trials))
	for i, t := range r.trials {
		perTrial[i] = fmt.Sprint(t.ops)
	}
	fmt.Printf("closed loop, 1 client: %d ops attempted, %d failed, %d trials completed (ops/trial %s), %d bytes/op\n",
		ops, failed, len(r.trials), strings.Join(perTrial, " "), r.def.bytesPerOp)
	for _, p := range r.problems {
		fmt.Printf("INVARIANT VIOLATED: %s\n", p)
	}
	if r.capped {
		fmt.Printf("WALL CAP: the run passed %v and was cut short\n", wallCap)
	}
	if r.cfg.trace {
		fmt.Println("end-to-end numbers of a traced run are not the benchmark's; run with --trace 0 for those")
	}
	fmt.Printf("end-to-end, best of %d untraced trials (allocations: median) [first .. third quartile of the trials] (setup_s: best, peak_rss_MB: median of %d rounds):\n",
		len(r.values("ops_per_s", false)), setups)
	for _, m := range endToEnd {
		value, q1, q3 := r.endToEndMetric(m)
		note := ""
		if m.Name == "ops_per_s" && r.def.bytesPerOp > 0 {
			note = fmt.Sprintf("  = %.1f MB/s", value*float64(r.def.bytesPerOp)/1e6)
		}
		fmt.Printf("  %-16s %12.4f %-5s [%.4f .. %.4f]%s\n", m.Name, value, m.Unit, q1, q3, note)
	}
	fmt.Printf("  %-16s %12.6f ratio\n", "fail_ratio", float64(failed)/float64(max(ops, 1)))
	fmt.Printf("set-ups, s:")
	for _, t := range r.setupTimes {
		fmt.Printf(" %.4f", t)
	}
	fmt.Println()
	fmt.Printf("trials:%7s %10s %10s %10s %10s %10s %10s\n", "traced", "ops/s", "p50 ms", "p90 ms", "cpu ms/op", "allocs/op", "KB/op")
	for _, t := range r.trials {
		fmt.Printf("       %7v %10.2f %10.4f %10.4f %10.4f %10.2f %10.2f\n", t.traced, t.perOp("ops_per_s"),
			t.perOp("latency_p50_ms"), t.perOp("latency_p90_ms"), t.perOp("cpu_ms_per_op"), t.perOp("allocs_per_op"), t.perOp("alloc_KB_per_op"))
	}
	names := make([]string, 0, len(r.counters))
	for name := range r.counters {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("workload counters over the timed phase:")
	for _, name := range names {
		fmt.Printf("  %-36s %14.4f\n", name, r.counters[name])
	}
}

func ladderMain(cfg runConfig) error {
	ladder, err := runLadder(cfg)
	if err != nil {
		return err
	}
	shape := readMachineShape()
	shape.LoadEnd = loadAverage()
	fmt.Printf("machine: %s\n", shape)
	printLayers(layerMetrics(ladder, &report{}))
	return nil
}

// childRun is what the parent keeps of one workload's process.
type childRun struct {
	result    result
	quartiles map[string][3]float64
}

// runChild runs one workload in a process of its own, so that no
// workload inherits another's heap, sockets or scheduler state. Its
// report goes to w.
func runChild(def workloadDef, cfg runConfig, out string, w io.Writer) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	trace := "0"
	if cfg.trace {
		trace = "1"
	}
	cmd := exec.Command(self, "--workload", def.name, "--seed", fmt.Sprint(cfg.seed),
		"--seconds", fmt.Sprint(cfg.seconds), "--trace", trace, "--out", out)
	cmd.Stderr = os.Stderr
	pipe, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var run childRun
	var last string
	sc := bufio.NewScanner(pipe)
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		last = sc.Text()
		if rest, ok := strings.CutPrefix(last, "quartiles "); ok {
			if err := json.Unmarshal([]byte(rest), &run.quartiles); err != nil {
				fmt.Fprintf(os.Stderr, "bench: %s: bad quartiles line: %v\n", def.name, err)
			}
			continue
		}
		fmt.Fprintln(w, last)
	}
	werr := cmd.Wait()
	if err := json.Unmarshal([]byte(last), &run.result); err != nil {
		return run, fmt.Errorf("%s printed no result (%v): %w", def.name, werr, err)
	}
	if werr != nil {
		return run, fmt.Errorf("%s: %w", def.name, werr)
	}
	return run, nil
}

// allMain runs every workload, each in its own process.
func allMain(cfg runConfig, out string) error {
	var failed []string
	for _, def := range defs {
		if _, err := runChild(def, cfg, out, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "bench:", err)
			failed = append(failed, def.name)
		}
		fmt.Println()
	}
	if len(failed) > 0 {
		return fmt.Errorf("failed: %s", strings.Join(failed, ", "))
	}
	fmt.Printf("all %d workloads correct\n", len(defs))
	return nil
}

// selfcheckMain is the noise self-test: the whole set twice, A then B, on
// the same code. Two sets that differ by more than a metric's bound mean
// the benchmark could not tell a regression of that size from noise.
func selfcheckMain(cfg runConfig, out string) error {
	cfg.trace = false
	shape := readMachineShape()
	var sets [2]map[string]childRun
	for i := range sets {
		sets[i] = map[string]childRun{}
		for _, def := range defs {
			run, err := runChild(def, cfg, out, io.Discard)
			if err != nil {
				return fmt.Errorf("set %c: %w", 'A'+i, err)
			}
			sets[i][def.name] = run
		}
	}
	shape.LoadEnd = loadAverage()
	fmt.Printf("noise self-test: every workload twice (set A, then set B), seed %d, %.0f s timed each\n", cfg.seed, cfg.seconds)
	fmt.Printf("machine: %s\n", shape)
	fmt.Printf("%-15s %-16s %12s %12s %8s %8s %8s\n", "workload", "metric", "set A", "set B", "diff", "IQR(A)", "bound")
	var over []string
	for _, def := range defs {
		a, b := sets[0][def.name], sets[1][def.name]
		for _, m := range endToEnd {
			va, vb := a.result.Metrics[m.Name].Value, b.result.Metrics[m.Name].Value
			diff := math.Abs(vb-va) / va
			q := a.quartiles[m.Name]
			verdict := ""
			if diff > m.Bound {
				verdict = "  OVER"
				over = append(over, def.name+"/"+m.Name)
			}
			fmt.Printf("%-15s %-16s %12.4f %12.4f %7.2f%% %7.2f%% %7.0f%%%s\n",
				def.name, m.Name, va, vb, diff*100, (q[2]-q[0])/q[1]*100, m.Bound*100, verdict)
		}
	}
	if len(over) > 0 {
		return fmt.Errorf("two runs of the same code differ by more than the bound on: %s", strings.Join(over, ", "))
	}
	fmt.Println("every difference is within its bound")
	return nil
}
