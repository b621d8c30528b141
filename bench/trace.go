package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed interval the harness recorded around its own call
// into the system. Spans of one operation share Op; Parent names the span
// that caused this one ("" for the operation's root).
type span struct {
	Op     int64  `json:"op"`
	Name   string `json:"span"`
	Parent string `json:"parent,omitempty"`
	Start  int64  `json:"start_us"` // since the trace began
	End    int64  `json:"end_us"`
}

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, so untraced trials pay one nil check per span site.
type tracer struct {
	t0    time.Time
	ops   int64
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newOp returns the identifier the spans of one operation share.
func (t *tracer) newOp() int64 {
	if t == nil {
		return 0
	}
	t.ops++
	return t.ops
}

func (t *tracer) add(op int64, name, parent string, start, end time.Time) {
	if t == nil {
		return
	}
	t.spans = append(t.spans, span{Op: op, Name: name, Parent: parent,
		Start: start.Sub(t.t0).Microseconds(), End: end.Sub(t.t0).Microseconds()})
}

// write stores the spans as JSON lines, one span per line.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	bw := bufio.NewWriter(f)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := bw.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary is the total and self time of all spans of one name; self
// time is a span's duration minus the part its children cover.
type spanSummary struct {
	Name          string
	Count         int
	TotalMs       float64
	SelfMs        float64
	childrenTotal int64
}

// summarize folds the spans by name. Children of one parent do not
// overlap in this harness, so the covered part is their summed duration.
func (t *tracer) summarize() []spanSummary {
	byName := map[string]*spanSummary{}
	get := func(name string) *spanSummary {
		s := byName[name]
		if s == nil {
			s = &spanSummary{Name: name}
			byName[name] = s
		}
		return s
	}
	for _, sp := range t.spans {
		s := get(sp.Name)
		s.Count++
		s.TotalMs += float64(sp.End-sp.Start) / 1000
		if sp.Parent != "" {
			get(sp.Parent).childrenTotal += sp.End - sp.Start
		}
	}
	out := make([]spanSummary, 0, len(byName))
	for _, s := range byName {
		s.SelfMs = s.TotalMs - float64(s.childrenTotal)/1000
		out = append(out, *s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TotalMs > out[j].TotalMs })
	return out
}

func (t *tracer) printSummary() {
	fmt.Printf("  %-14s %8s %12s %12s\n", "span", "count", "total ms", "self ms")
	for _, s := range t.summarize() {
		fmt.Printf("  %-14s %8d %12.1f %12.1f\n", s.Name, s.Count, s.TotalMs, s.SelfMs)
	}
}
