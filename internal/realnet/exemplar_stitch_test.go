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
	originSpans := obs.NewSpanCollector(256)
	origin := relay.NewOriginServer(relay.WithSpans(originSpans))
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
	relaySpans := obs.NewSpanCollector(256)
	r := relay.New(relay.WithSpans(relaySpans))
	sh := shaper.NewDialer()
	sh.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 12e6})
	r.Dial = sh.Dial
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

	clientSpans := obs.NewSpanCollector(256)
	tr := &Transport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r1": rl.Addr().String()},
		Spans:   clientSpans,
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

	// The p99 lives in the slow transfer's bucket; find that bucket's
	// exemplar in the exposition text.
	fams, err := obs.ParseProm(body)
	if err != nil {
		t.Fatalf("scrape parse: %v", err)
	}
	hist, err := fams["relay_forward_latency_seconds"].Histogram()
	if err != nil {
		t.Fatalf("latency family: %v", err)
	}
	if hist.Total != 21 {
		t.Fatalf("relay observed %d requests, want 21", hist.Total)
	}
	if hist.P99 <= 1 {
		t.Fatalf("p99 %.3fs not in the shaped slow bucket (>1s)", hist.P99)
	}
	traceHex, exemplarValue := exemplarOnBucketCovering(t, string(body),
		"relay_forward_latency_seconds_bucket", hist.P99)
	if exemplarValue <= 1 {
		t.Fatalf("p99 exemplar value %.3fs, want the >1s slow request", exemplarValue)
	}

	// The scraped trace ID must stitch — across all three processes'
	// collectors — into one complete client -> relay -> origin tree.
	var trace obs.TraceID
	if err := json.Unmarshal([]byte(strconv.Quote(traceHex)), &trace); err != nil {
		t.Fatalf("exemplar trace_id %q: %v", traceHex, err)
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

// exemplarOnBucketCovering scans OpenMetrics text for the family's
// bucket whose le edge covers quantile value q (the smallest edge >= q)
// and returns that bucket's exemplar trace ID and value.
func exemplarOnBucketCovering(t *testing.T, text, bucketName string, q float64) (traceHex string, value float64) {
	t.Helper()
	bestLE := 0.0
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, bucketName+`{le="`) {
			continue
		}
		rest := line[len(bucketName)+5:]
		leStr, _, ok := strings.Cut(rest, `"`)
		if !ok || leStr == "+Inf" {
			continue
		}
		le, err := strconv.ParseFloat(leStr, 64)
		if err != nil || le < q {
			continue
		}
		if bestLE != 0 && le >= bestLE {
			continue
		}
		// This is the lowest edge so far that still covers q; take its
		// exemplar if it carries one.
		_, ex, ok := strings.Cut(line, ` # {trace_id="`)
		if !ok {
			continue
		}
		hex, rest2, ok := strings.Cut(ex, `"}`)
		if !ok {
			continue
		}
		fields := strings.Fields(rest2)
		if len(fields) < 1 {
			continue
		}
		v, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			continue
		}
		bestLE, traceHex, value = le, hex, v
	}
	if traceHex == "" {
		t.Fatalf("no exemplar on any %s bucket covering %.3f:\n%s", bucketName, q, text)
	}
	return traceHex, value
}

func keysOf(m map[string]obs.Span) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	return out
}
