// Trace stitching: assembling spans collected by independent processes
// (client, relay, origin — merged from their JSONL archives or live
// stores) into per-trace parent-child trees, and rendering a tree as
// a human-readable timeline.

package obs

import (
	"fmt"
	"sort"
	"strings"
)

// TraceNode is one span plus its children, sorted by start time.
type TraceNode struct {
	Span     Span
	Children []*TraceNode
}

// Walk visits the node and its descendants depth-first, parents before
// children.
func (n *TraceNode) Walk(visit func(*TraceNode, int)) { n.walk(visit, 0) }

func (n *TraceNode) walk(visit func(*TraceNode, int), depth int) {
	visit(n, depth)
	for _, c := range n.Children {
		c.walk(visit, depth+1)
	}
}

// TraceIDs returns the distinct trace IDs present in spans, in first-seen
// order.
func TraceIDs(spans []Span) []TraceID {
	var ids []TraceID
	seen := make(map[TraceID]bool)
	for _, s := range spans {
		if !seen[s.Trace] {
			seen[s.Trace] = true
			ids = append(ids, s.Trace)
		}
	}
	return ids
}

// StitchTrace assembles the spans of one trace into parent-child trees.
// Spans whose parent is zero — or whose parent never arrived (a process
// that was not archived, or a ring that wrapped) — become roots, so a
// partial merge still renders instead of vanishing. Siblings are ordered
// by start time; a complete well-formed trace yields exactly one root.
func StitchTrace(trace TraceID, spans []Span) []*TraceNode {
	byID := make(map[SpanID]*TraceNode)
	var members []*TraceNode
	for _, s := range spans {
		if s.Trace != trace || s.ID.IsZero() {
			continue
		}
		n := &TraceNode{Span: s}
		byID[s.ID] = n
		members = append(members, n)
	}
	var roots []*TraceNode
	for _, n := range members {
		if parent, ok := byID[n.Span.Parent]; ok && !n.Span.Parent.IsZero() && parent != n {
			parent.Children = append(parent.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	sortNodes := func(ns []*TraceNode) {
		sort.SliceStable(ns, func(i, j int) bool { return ns[i].Span.Start < ns[j].Span.Start })
	}
	sortNodes(roots)
	for _, n := range members {
		sortNodes(n.Children)
	}
	return roots
}

// FormatTrace renders stitched trees as an indented timeline, offsets
// relative to the earliest span start:
//
//	trace 3f2a…:
//	  +0.000ms   123.456ms  client/select            ok
//	  +0.102ms     4.310ms  ├ client/transfer        ok  path=r1
//	  …
func FormatTrace(trace TraceID, roots []*TraceNode) string {
	var b strings.Builder
	fmt.Fprintf(&b, "trace %s:\n", trace)
	base := int64(0)
	for i, r := range roots {
		if i == 0 || r.Span.Start < base {
			base = r.Span.Start
		}
	}
	for _, r := range roots {
		r.Walk(func(n *TraceNode, depth int) {
			attrs := formatAttrs(n.Span.Attrs)
			fmt.Fprintf(&b, "  %+10.3fms %11.3fms  %s%s/%s  %s%s\n",
				float64(n.Span.Start-base)/1e6,
				float64(n.Span.Duration)/1e6,
				strings.Repeat("  ", depth),
				n.Span.Service, n.Span.Phase,
				n.Span.Class, attrs)
		})
	}
	return b.String()
}

func formatAttrs(attrs map[string]string) string {
	if len(attrs) == 0 {
		return ""
	}
	keys := make([]string, 0, len(attrs))
	for k := range attrs {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "  %s=%s", k, attrs[k])
	}
	return b.String()
}
