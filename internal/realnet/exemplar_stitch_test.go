package realnet

import (
	"context"
	"encoding/json"
	"net"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/daemon"
	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/obs/flight"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// TestExemplarResolvesToStitchedTrace is the acceptance path of the
// exemplar layer: real traffic flows client -> relay -> origin with all
// three processes collecting spans; the relay's /metrics is scraped
// over real HTTP in OpenMetrics mode; the exemplar on the bucket
// covering the histogram's p99 is pulled out of the exposition text;
// and that trace ID — known only from the scrape — stitches into one
// complete cross-process tree. This is the debugging loop the plane
// exists for: see a bad tail on a dashboard, follow its exemplar to the
// exact request that caused it.
func TestExemplarResolvesToStitchedTrace(t *testing.T) {
	originSpans := flight.NewRecorder(256, true)
	origin := relay.NewOriginServer()
	origin.Flight = originSpans
	const smallSize, largeSize = int64(8 << 10), int64(2 << 20)
	origin.Put("small.bin", smallSize)
	origin.Put("large.bin", largeSize)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	// The relay->origin leg is shaped to ~12 Mb/s: the small objects
	// still forward in milliseconds, while the large one takes over a
	// second — landing its trace alone in a tail bucket of the relay's
	// [0,20)s latency histogram (1s coarse buckets on /metrics).
	relaySpans := flight.NewRecorder(256, true)
	sh := shaper.NewDialer()
	sh.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 12e6})
	r := relay.New(relay.WithFlight(relaySpans), relay.WithDialer(sh.Dial))
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	// The relay's metrics endpoint, wired exactly as relayd wires it.
	d := &daemon.Daemon{Prefix: "relay", Prom: r.WriteProm}
	ml, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ml.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go (&httpx.Server{Mux: d.Mux()}).ServeListener(ctx, ml)

	clientSpans := flight.NewRecorder(256, true)
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r1": rl.Addr().String()},
		Flight:  clientSpans,
		Verify:  true,
	}
	fetch := func(name string, size int64) {
		t.Helper()
		h := tr.Start(core.Object{Server: "origin", Name: name, Size: size},
			core.Path{Via: "r1"}, 0, size)
		tr.Wait(h)
		if err := h.Result().Err; err != nil {
			t.Fatalf("fetch %s: %v", name, err)
		}
	}
	for i := 0; i < 20; i++ {
		fetch("small.bin", smallSize)
	}
	fetch("large.bin", largeSize)
	// Latency observations and spans land when each hop's record
	// finishes, after the client already holds the last byte.
	r.WaitIdle()
	origin.WaitIdle()

	// Scrape the relay in OpenMetrics mode over real HTTP.
	status, hdr, body, err := httpx.Get(ctx, nil, ml.Addr().String(), "/metrics",
		map[string]string{"accept": "application/openmetrics-text"}, 10*time.Second)
	if err != nil || status != 200 {
		t.Fatalf("scrape: status %d err %v", status, err)
	}
	if hdr["content-type"] != obs.OpenMetricsContentType {
		t.Fatalf("scrape content-type %q", hdr["content-type"])
	}
	if err := obs.LintOpenMetrics(body); err != nil {
		t.Fatalf("scrape not valid OpenMetrics: %v", err)
	}

	// The p99 lives in the slow transfer's bucket; that bucket's line
	// carries the exemplar.
	const family = "relay_forward_latency_seconds"
	count := sampleValue(t, string(body), family+"_count")
	if count != 21 {
		t.Fatalf("relay observed %v requests, want 21", count)
	}
	p99 := p99Bucket(t, string(body), family, count)
	if p99.lo < 1 {
		t.Fatalf("p99 bucket (%v, %v]s not in the shaped slow range (>1s)", p99.lo, p99.le)
	}
	if p99.trace == "" {
		t.Fatalf("p99 bucket carries no exemplar:\n%s", body)
	}
	if p99.value <= 1 {
		t.Fatalf("p99 exemplar value %.3fs, want the >1s slow request", p99.value)
	}

	// The scraped trace ID must stitch — across all three processes'
	// stores — into one complete client -> relay -> origin tree.
	var trace obs.TraceID
	if err := json.Unmarshal([]byte(strconv.Quote(p99.trace)), &trace); err != nil {
		t.Fatalf("exemplar trace_id %q: %v", p99.trace, err)
	}
	all := append(clientSpans.Spans(), relaySpans.Spans()...)
	all = append(all, originSpans.Spans()...)
	roots := obs.StitchTrace(trace, all)
	if len(roots) != 1 {
		t.Fatalf("trace %s stitched to %d roots, want one complete tree", trace, len(roots))
	}
	root := roots[0]
	if root.Span.Service != "client" || root.Span.Phase != "transfer" {
		t.Fatalf("root span %s/%s, want client/transfer", root.Span.Service, root.Span.Phase)
	}
	byService := map[string]obs.Span{}
	parentOf := map[string]obs.SpanID{}
	root.Walk(func(n *obs.TraceNode, depth int) {
		key := n.Span.Service + "/" + n.Span.Phase
		byService[key] = n.Span
		parentOf[key] = n.Span.Parent
	})
	fwd, ok := byService["relay/forward"]
	if !ok {
		t.Fatalf("no relay hop in the stitched tree: %v", keysOf(byService))
	}
	if fwd.Parent != root.Span.ID {
		t.Fatal("relay forward span not parented on the client transfer span")
	}
	serve, ok := byService["origin/serve"]
	if !ok {
		t.Fatalf("no origin hop in the stitched tree: %v", keysOf(byService))
	}
	if serve.Parent != fwd.ID {
		t.Fatal("origin serve span not parented on the relay forward span")
	}
	// The slow transfer really is the one the exemplar names.
	if got := time.Duration(root.Span.Duration); got < time.Second {
		t.Fatalf("stitched root took %v, the exemplar was supposed to name the >1s transfer", got)
	}
	// The tree is complete: both sides of the relay hop recorded their
	// per-phase children.
	for _, phase := range []string{"client/ttfb", "client/stream", "relay/dial", "relay/stream"} {
		if _, ok := byService[phase]; !ok {
			t.Fatalf("stitched tree missing %s: %v", phase, keysOf(byService))
		}
	}
}

// sampleValue returns the value of the exposition's unlabeled sample
// line for name.
func sampleValue(t *testing.T, text, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(text, "\n") {
		if v, ok := strings.CutPrefix(line, name+" "); ok {
			f, err := strconv.ParseFloat(v, 64)
			if err != nil {
				t.Fatalf("sample %q: %v", line, err)
			}
			return f
		}
	}
	t.Fatalf("no %s sample:\n%s", name, text)
	return 0
}

// bucket is one histogram bucket line of an OpenMetrics exposition: the
// range (lo, le] it adds and its exemplar, if any.
type bucket struct {
	lo, le float64
	trace  string // exemplar trace ID, "" without one
	value  float64
}

// p99Bucket returns the first of family's buckets whose cumulative
// count reaches 99% of count: the bucket the p99 lies in.
func p99Bucket(t *testing.T, text, family string, count float64) bucket {
	t.Helper()
	b := bucket{}
	for _, line := range strings.Split(text, "\n") {
		rest, ok := strings.CutPrefix(line, family+`_bucket{le="`)
		if !ok {
			continue
		}
		leStr, rest, _ := strings.Cut(rest, `"} `)
		cumStr, ex, _ := strings.Cut(rest, ` # {trace_id="`)
		le, err1 := strconv.ParseFloat(leStr, 64) // "+Inf" parses too
		cum, err2 := strconv.ParseFloat(cumStr, 64)
		if err1 != nil || err2 != nil {
			t.Fatalf("bucket line %q: %v %v", line, err1, err2)
		}
		b.le = le
		if cum >= 0.99*count {
			if hex, rest, ok := strings.Cut(ex, `"} `); ok {
				v, _, _ := strings.Cut(rest, " ")
				b.trace = hex
				b.value, _ = strconv.ParseFloat(v, 64)
			}
			return b
		}
		b.lo = le
	}
	t.Fatalf("no %s bucket holds 99%% of %v:\n%s", family, count, text)
	return b
}

func keysOf(m map[string]obs.Span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
