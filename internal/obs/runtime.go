// Go runtime health as Prometheus families, read from runtime/metrics:
// heap footprint, GC cycle count and pause distribution, goroutine
// count, and scheduler latency. Every daemon appends these to /metrics
// so a scrape can separate application regressions from runtime
// pressure (a relay whose p99 collapsed because the heap is
// thrashing looks identical to one with a bad path until go_* says
// otherwise).

package obs

import (
	"runtime/metrics"
)

// runtimeSamples enumerates the runtime/metrics series the exposition
// covers, in render order.
var runtimeSamples = []struct {
	key  string
	name string
	help string
	typ  string // "gauge", "counter", or "hist"
}{
	{"/sched/goroutines:goroutines", "go_goroutines", "Live goroutines.", "gauge"},
	{"/sched/gomaxprocs:threads", "go_gomaxprocs", "GOMAXPROCS.", "gauge"},
	{"/memory/classes/heap/objects:bytes", "go_memstats_heap_objects_bytes", "Bytes of live heap objects.", "gauge"},
	{"/memory/classes/total:bytes", "go_memstats_total_bytes", "Total bytes mapped by the Go runtime.", "gauge"},
	{"/gc/cycles/total:gc-cycles", "go_gc_cycles_total", "Completed GC cycles.", "counter"},
	{"/gc/pauses:seconds", "go_gc_pause_seconds", "Stop-the-world GC pause durations.", "hist"},
	{"/sched/latencies:seconds", "go_sched_latency_seconds", "Time goroutines spent runnable before running.", "hist"},
}

// WriteRuntimeProm appends the go_* runtime families to an exposition.
// Series the running toolchain does not publish are skipped rather
// than rendered as zeros, so the output never lies about what was
// measured.
func WriteRuntimeProm(p *Prom) {
	samples := make([]metrics.Sample, len(runtimeSamples))
	for i, rs := range runtimeSamples {
		samples[i].Name = rs.key
	}
	metrics.Read(samples)
	for i, rs := range runtimeSamples {
		v := samples[i].Value
		switch rs.typ {
		case "gauge", "counter":
			var f float64
			switch v.Kind() {
			case metrics.KindUint64:
				f = float64(v.Uint64())
			case metrics.KindFloat64:
				f = v.Float64()
			default:
				continue
			}
			if rs.typ == "counter" {
				p.Counter(rs.name, rs.help, f)
			} else {
				p.Gauge(rs.name, rs.help, f)
			}
		case "hist":
			if v.Kind() != metrics.KindFloat64Histogram {
				continue
			}
			h := v.Float64Histogram()
			p.HistogramEdges(rs.name, rs.help, h.Buckets, h.Counts)
		}
	}
}
