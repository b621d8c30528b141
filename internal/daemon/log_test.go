package daemon

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"strings"
	"testing"
)

// TestLogLevelSpellings pins the -log-level values the daemons accept:
// the four level names in any case, "warning", and empty for info.
func TestLogLevelSpellings(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"": slog.LevelInfo, "info": slog.LevelInfo, "debug": slog.LevelDebug,
		"warn": slog.LevelWarn, "warning": slog.LevelWarn, "error": slog.LevelError,
		"ERROR": slog.LevelError, " debug ": slog.LevelDebug,
	} {
		logger, err := newLogger(&bytes.Buffer{}, "text", in, "relayd")
		if err != nil {
			t.Fatalf("-log-level %q: %v", in, err)
		}
		h := logger.Handler()
		if !h.Enabled(context.Background(), want) || h.Enabled(context.Background(), want-1) {
			t.Fatalf("-log-level %q: floor is not %v", in, want)
		}
	}
	if _, err := newLogger(&bytes.Buffer{}, "text", "loud", "relayd"); err == nil {
		t.Fatal("accepted -log-level loud")
	}
}

// TestLogTextFormatAndLevels checks both encodings: every line carries
// the component label, and lines below the floor are dropped.
func TestLogTextFormatAndLevels(t *testing.T) {
	var buf bytes.Buffer
	logger, err := newLogger(&buf, "text", "warn", "relayd")
	if err != nil {
		t.Fatal(err)
	}
	logger.Info("suppressed")
	logger.Warn("visible", "addr", "127.0.0.1:0")
	out := buf.String()
	if strings.Contains(out, "suppressed") {
		t.Fatalf("info line leaked past the warn floor:\n%s", out)
	}
	if !strings.Contains(out, "level=WARN msg=visible component=relayd addr=127.0.0.1:0") {
		t.Fatalf("text line malformed:\n%s", out)
	}

	buf.Reset()
	if logger, err = newLogger(&buf, "JSON", "", "origind"); err != nil {
		t.Fatal(err)
	}
	logger.Info("listening", "addr", "127.0.0.1:0")
	var m map[string]any
	if err := json.Unmarshal(buf.Bytes(), &m); err != nil {
		t.Fatalf("json line: %v\n%s", err, buf.Bytes())
	}
	if m["msg"] != "listening" || m["component"] != "origind" || m["addr"] != "127.0.0.1:0" {
		t.Fatalf("json line = %v", m)
	}
}
