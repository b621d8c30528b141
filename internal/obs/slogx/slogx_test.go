package slogx

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"sync"
	"testing"

	"repro/internal/obs"
)

// logLine logs one info message through a JSON handler and decodes the
// emitted line.
func logLine(t *testing.T, ctx context.Context, cfg Config, component, msg string) map[string]any {
	t.Helper()
	var buf bytes.Buffer
	logger := New(&buf, component, cfg)
	logger.InfoContext(ctx, msg, "k", "v")
	if buf.Len() == 0 {
		return nil
	}
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("log line not JSON: %v\n%s", err, buf.Bytes())
	}
	return m
}

func TestTraceFieldsInsideSpan(t *testing.T) {
	span := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	ctx := obs.ContextWithSpan(context.Background(), span)

	m := logLine(t, ctx, Config{Format: "json"}, "client", "hello")
	trace, ok := m[TraceKey].(string)
	if !ok || trace != span.Trace.String() {
		t.Fatalf("trace field = %v, want %s", m[TraceKey], span.Trace)
	}
	sp, ok := m[SpanKey].(string)
	if !ok || sp != span.Span.String() {
		t.Fatalf("span field = %v, want %s", m[SpanKey], span.Span)
	}
	if m[ComponentKey] != "client" || m["k"] != "v" {
		t.Fatalf("attrs lost: %v", m)
	}
}

func TestTraceFieldsAbsentOutsideSpan(t *testing.T) {
	m := logLine(t, context.Background(), Config{Format: "json"}, "client", "hello")
	// The keys must be absent, not present with empty values.
	if _, present := m[TraceKey]; present {
		t.Fatalf("trace key present outside span: %v", m)
	}
	if _, present := m[SpanKey]; present {
		t.Fatalf("span key present outside span: %v", m)
	}
}

func TestTextFormatAndLevels(t *testing.T) {
	var buf bytes.Buffer
	logger := New(&buf, "relay", Config{Format: "text", Level: slog.LevelWarn})
	logger.Info("suppressed")
	logger.Warn("visible", "addr", "127.0.0.1:0")
	out := buf.String()
	if strings.Contains(out, "suppressed") {
		t.Fatalf("info line leaked past warn floor:\n%s", out)
	}
	if !strings.Contains(out, "visible") || !strings.Contains(out, "component=relay") {
		t.Fatalf("warn line malformed:\n%s", out)
	}
}

func TestComponentLevelOverride(t *testing.T) {
	cfg := Config{
		Format:          "json",
		Level:           slog.LevelWarn,
		ComponentLevels: map[string]slog.Level{"registry": slog.LevelDebug},
	}
	var buf bytes.Buffer
	handler := NewHandler(&buf, cfg)
	noisy := slog.New(handler).With(slog.String(ComponentKey, "registry"))
	quiet := slog.New(handler).With(slog.String(ComponentKey, "relay"))
	noisy.Debug("registry-debug")
	quiet.Info("relay-info")
	out := buf.String()
	if !strings.Contains(out, "registry-debug") {
		t.Fatalf("component override did not lower the floor:\n%s", out)
	}
	if strings.Contains(out, "relay-info") {
		t.Fatalf("non-overridden component leaked past the floor:\n%s", out)
	}
}

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"": slog.LevelInfo, "info": slog.LevelInfo, "debug": slog.LevelDebug,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
		"ERROR": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Fatalf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Fatal("ParseLevel accepted garbage")
	}
}

func TestParseComponentLevels(t *testing.T) {
	m, err := ParseComponentLevels("registry=debug, relay=error")
	if err != nil {
		t.Fatal(err)
	}
	if m["registry"] != slog.LevelDebug || m["relay"] != slog.LevelError {
		t.Fatalf("parsed %v", m)
	}
	if m2, err := ParseComponentLevels(""); err != nil || m2 != nil {
		t.Fatalf("empty spec = %v, %v; want nil, nil", m2, err)
	}
	if _, err := ParseComponentLevels("nolevel"); err == nil {
		t.Fatal("accepted pair without =")
	}
}

// lockedBuffer serializes concurrent writes and hands back whole lines.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

// TestTraceInjectionConcurrentSpans drives one shared JSON logger from
// many goroutines, each inside its own span, and checks every emitted
// line carries the trace of the goroutine that logged it — the handler
// must read the span from the per-call context, never from shared
// state. Run with -race this also proves Handle/Clone stay data-race
// free on the shared handler chain.
func TestTraceInjectionConcurrentSpans(t *testing.T) {
	var out lockedBuffer
	logger := New(&out, "relay", Config{Format: "json"})

	const goroutines = 8
	const perG = 50
	traces := make([]obs.SpanContext, goroutines)
	for g := range traces {
		traces[g] = obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			ctx := obs.ContextWithSpan(context.Background(), traces[g])
			for i := 0; i < perG; i++ {
				logger.InfoContext(ctx, "work", "g", g, "i", i)
			}
		}(g)
	}
	wg.Wait()

	lines := strings.Split(strings.TrimSpace(out.buf.String()), "\n")
	if len(lines) != goroutines*perG {
		t.Fatalf("emitted %d lines, want %d", len(lines), goroutines*perG)
	}
	for _, line := range lines {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("interleaved write broke a line: %v\n%q", err, line)
		}
		g := int(m["g"].(float64))
		if got := m[TraceKey]; got != traces[g].Trace.String() {
			t.Fatalf("goroutine %d line carries trace %v, want %s", g, got, traces[g].Trace)
		}
		if got := m[SpanKey]; got != traces[g].Span.String() {
			t.Fatalf("goroutine %d line carries span %v, want %s", g, got, traces[g].Span)
		}
	}
}

// TestComponentFilteringConcurrent exercises per-component level
// overrides on loggers derived from one shared handler while goroutines
// log through them concurrently: the noisy component's info lines are
// suppressed, everyone else's arrive intact.
func TestComponentFilteringConcurrent(t *testing.T) {
	var out lockedBuffer
	cfg := Config{
		Format: "json",
		Level:  slog.LevelInfo,
		ComponentLevels: map[string]slog.Level{
			"noisy": slog.LevelError,
			"quiet": slog.LevelDebug,
		},
	}
	root := slog.New(NewHandler(&out, cfg))
	components := []string{"noisy", "quiet", "plain"}

	const perC = 40
	var wg sync.WaitGroup
	for _, comp := range components {
		wg.Add(1)
		go func(comp string) {
			defer wg.Done()
			logger := With(root, comp)
			sc := obs.SpanContext{Trace: obs.NewTraceID(), Span: obs.NewSpanID()}
			ctx := obs.ContextWithSpan(context.Background(), sc)
			for i := 0; i < perC; i++ {
				logger.InfoContext(ctx, "tick", "i", i)  // dropped for noisy
				logger.DebugContext(ctx, "tock", "i", i) // kept only for quiet
			}
		}(comp)
	}
	wg.Wait()

	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(out.buf.String()), "\n") {
		var m map[string]any
		if err := json.Unmarshal([]byte(line), &m); err != nil {
			t.Fatalf("bad line: %v\n%q", err, line)
		}
		comp, _ := m[ComponentKey].(string)
		counts[comp]++
		if _, ok := m[TraceKey]; !ok {
			t.Fatalf("line lost its trace under concurrency: %q", line)
		}
	}
	want := map[string]int{
		"noisy": 0,        // info suppressed by the error override
		"quiet": 2 * perC, // debug allowed by the debug override
		"plain": perC,     // floor: info kept, debug dropped
	}
	for comp, n := range want {
		if counts[comp] != n {
			t.Fatalf("component %s emitted %d lines, want %d (all: %v)", comp, counts[comp], n, counts)
		}
	}
}
