package repro_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"repro"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// TestCrossProcessTraceStitches is the acceptance check for the tracing
// tentpole: one SelectAndFetch over real loopback TCP — client racing the
// direct path against a relayed path, the relay and origin each recording
// their own spans — must yield exactly one trace that stitches into a
// single well-formed tree: the client's root "select" span on top, the
// relay's forward span nested inside the client transfer span that
// carried it, the origin's serve spans below, and the losing direct probe
// ending with the canceled class.
func TestCrossProcessTraceStitches(t *testing.T) {
	originSpans := repro.NewRecorder(256)
	origin := relay.NewOriginServer()
	origin.Flight = originSpans
	origin.Put("large.bin", 600_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	relaySpans := repro.NewRecorder(256)
	r := relay.New(relay.WithFlight(relaySpans))
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	// Throttle the direct path hard so the relayed probe always wins and
	// the direct probe is still mid-stream when the engine reaps it.
	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 1e6})
	d.SetProfile(rl.Addr().String(), shaper.PathProfile{DownloadBps: 50e6})

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"campus": rl.Addr().String()},
		Dial:    d.Dial,
		Verify:  true,
	}
	defer tr.Close()

	clientSpans := repro.NewRecorder(256)
	client := repro.New(tr,
		repro.WithProbeBytes(150_000),
		repro.WithSpans(clientSpans))

	obj := repro.Object{Server: "origin", Name: "large.bin", Size: 600_000}
	out := client.SelectAndFetch(context.Background(), obj, []string{"campus"})
	if out.Err != nil {
		t.Fatalf("select-and-fetch: %v", out.Err)
	}
	if out.Selected.IsDirect() {
		t.Fatalf("direct path won despite 50x throttle; selection %v", out.Selected)
	}

	// The loser's span is ended by its fetch goroutine, which may still be
	// unwinding its closed socket when SelectAndFetch returns (the watcher
	// published the canceled result first).
	loser := awaitSpan(t, clientSpans, func(s repro.Span) bool {
		return s.Phase == "transfer" && s.Class == "canceled" && s.Attrs["path"] == "direct"
	})
	if loser.Err == "" {
		t.Fatal("canceled loser span carries no error detail")
	}

	// Merge the three processes' stores — exactly what fetch -stitch
	// -merge does with the daemons' archives — and stitch. Relay and
	// origin record a request's spans when its record finishes, after the
	// client has its bytes (or has hung up, for the reaped loser).
	r.WaitIdle()
	origin.WaitIdle()
	all := append(clientSpans.Spans(), relaySpans.Spans()...)
	all = append(all, originSpans.Spans()...)
	ids := repro.TraceIDs(all)
	if len(ids) != 1 {
		t.Fatalf("spans name %d traces, want exactly 1", len(ids))
	}
	roots := repro.StitchTrace(ids[0], all)
	if len(roots) != 1 {
		t.Fatalf("stitched %d roots, want a single tree", len(roots))
	}
	root := roots[0]
	if root.Span.Service != "client" || root.Span.Phase != "select" || root.Span.Class != "ok" {
		t.Fatalf("root span = %s/%s %s, want client/select ok", root.Span.Service, root.Span.Phase, root.Span.Class)
	}

	// Every span is reachable from the single root: no orphans, no
	// dangling parents anywhere in the cross-process merge.
	nodes := 0
	byPhase := map[string][]repro.Span{}
	root.Walk(func(n *repro.TraceNode, depth int) {
		nodes++
		key := n.Span.Service + "/" + n.Span.Phase
		byPhase[key] = append(byPhase[key], n.Span)
	})
	if nodes != len(all) {
		t.Fatalf("tree reaches %d of %d spans", nodes, len(all))
	}

	// All three services contributed, with the expected phase vocabulary.
	for _, key := range []string{"client/race", "client/transfer", "client/dial",
		"client/ttfb", "client/stream", "client/verify", "relay/forward",
		"relay/dial", "relay/ttfb", "relay/stream", "origin/serve"} {
		if len(byPhase[key]) == 0 {
			t.Fatalf("no %s span in the stitched trace (have %v)", key, phaseKeys(byPhase))
		}
	}
	// Two relayed requests crossed the hop (probe + warm remainder), and
	// the origin served every request of the operation: two relayed plus
	// the direct probe.
	if got := len(byPhase["relay/forward"]); got != 2 {
		t.Fatalf("%d relay forward spans, want 2 (probe + remainder)", got)
	}
	if got := len(byPhase["origin/serve"]); got != 3 {
		t.Fatalf("%d origin serve spans, want 3", got)
	}

	// Timeline shape: the root covers the start of everything beneath it,
	// and every successful client span ends within it. The canceled loser
	// and its phase children outlive the root by their socket-unwind time,
	// so that subtree is exempt from the end check.
	unwound := map[repro.SpanID]bool{}
	var markUnwound func(n *repro.TraceNode, inside bool)
	markUnwound = func(n *repro.TraceNode, inside bool) {
		inside = inside || n.Span.Class == "canceled"
		if inside {
			unwound[n.Span.ID] = true
		}
		for _, c := range n.Children {
			markUnwound(c, inside)
		}
	}
	markUnwound(root, false)
	for _, spans := range byPhase {
		for _, s := range spans {
			if s.Start < root.Span.Start {
				t.Fatalf("%s/%s starts before the root", s.Service, s.Phase)
			}
			if s.Class == "ok" && s.Service == "client" && !unwound[s.ID] &&
				s.EndTime() > root.Span.EndTime() {
				t.Fatalf("%s/%s ends after the root", s.Service, s.Phase)
			}
		}
	}

	// The relay hop nests inside the client transfer span that carried the
	// x-trace header: parent link and interval containment (the relay may
	// finish its bookkeeping a beat after the client's last read, hence the
	// slack on the end edge).
	byID := map[repro.SpanID]repro.Span{}
	for _, s := range all {
		byID[s.ID] = s
	}
	const endSlack = int64(100 * time.Millisecond)
	for _, fwd := range byPhase["relay/forward"] {
		parent, ok := byID[fwd.Parent]
		if !ok || parent.Service != "client" || parent.Phase != "transfer" {
			t.Fatalf("forward span parent = %+v, want a client transfer span", parent)
		}
		if fwd.Start < parent.Start || fwd.EndTime() > parent.EndTime()+endSlack {
			t.Fatalf("forward span [%d,%d] escapes its transfer span [%d,%d]",
				fwd.Start, fwd.EndTime(), parent.Start, parent.EndTime())
		}
		if fwd.Class != "ok" && fwd.Class != "canceled" && fwd.Class != "failed" {
			t.Fatalf("forward span class %q", fwd.Class)
		}
	}
	// And the origin's serve spans sit under the relay hop for relayed
	// requests, under the client transfer for the direct probe.
	relayedServes, directServes := 0, 0
	for _, serve := range byPhase["origin/serve"] {
		parent := byID[serve.Parent]
		switch {
		case parent.Service == "relay" && parent.Phase == "forward":
			relayedServes++
		case parent.Service == "client" && parent.Phase == "transfer":
			directServes++
		default:
			t.Fatalf("serve span parent = %s/%s", parent.Service, parent.Phase)
		}
	}
	if relayedServes != 2 || directServes != 1 {
		t.Fatalf("serve parentage: %d relayed, %d direct; want 2, 1", relayedServes, directServes)
	}

	// The rendered timeline carries the whole story.
	text := repro.FormatTrace(ids[0], roots)
	for _, want := range []string{"client/select", "relay/forward", "origin/serve", "canceled"} {
		if !strings.Contains(text, want) {
			t.Fatalf("formatted trace missing %q:\n%s", want, text)
		}
	}
}

// awaitSpan waits until no transfer is open in the store — spans ended
// asynchronously after the operation returns are then in it — and
// returns the span matching pred.
func awaitSpan(t *testing.T, rec *repro.Recorder, pred func(repro.Span) bool) repro.Span {
	t.Helper()
	rec.WaitIdle()
	spans := rec.Spans()
	for _, s := range spans {
		if pred(s) {
			return s
		}
	}
	t.Fatalf("no matching span among the %d stored", len(spans))
	return repro.Span{}
}

func phaseKeys(m map[string][]repro.Span) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestTracingDisabledRecordsNothing pins the opt-out: a client without
// WithSpans must leave every collector untouched and expose a nil
// Spans() accessor, keeping the hot path span-free.
func TestTracingDisabledRecordsNothing(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("o.bin", 64_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{},
		Verify:  true,
	}
	defer tr.Close()

	client := repro.New(tr, repro.WithProbeBytes(16_000))
	if client.Spans() != nil {
		t.Fatal("untraced client exposes a collector")
	}
	out := client.SelectAndFetch(context.Background(),
		repro.Object{Server: "origin", Name: "o.bin", Size: 64_000}, nil)
	if out.Err != nil {
		t.Fatal(out.Err)
	}
}
