package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"strings"
	"testing"
)

func TestParseExps(t *testing.T) {
	want, err := parseExps("fig1, chaos")
	if err != nil || len(want) != 2 || !want["fig1"] || !want["chaos"] {
		t.Fatalf("parseExps = %v, %v", want, err)
	}
	// An id this command does not run is an error naming the ones it
	// does, not a silent no-op.
	for _, bad := range []string{"fig7", "fig1,nope", ""} {
		if _, err := parseExps(bad); err == nil || !strings.Contains(err.Error(), "healthrank") {
			t.Errorf("parseExps(%q) = %v, want an error listing the valid ids", bad, err)
		}
	}
}

// TestQuickReportGolden pins the report as a function of its flags: the
// quick-scale reproduction prints the committed golden at one worker and
// again, second in the same process, at four.
func TestQuickReportGolden(t *testing.T) {
	for _, tc := range []struct{ exp, golden string }{
		{"all", "testdata/quick_seed42.golden"},
		{"seeds", "testdata/quick_seeds.golden"},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []string{"1", "4"} {
			var out bytes.Buffer
			args := []string{"-exp", tc.exp, "-scale", "quick", "-seed", "42", "-workers", workers}
			if code := lab(args, &out, io.Discard); code != 0 {
				t.Fatalf("indirectlab %v exited %d", args, code)
			}
			if !bytes.Equal(out.Bytes(), want) {
				t.Errorf("indirectlab %v differs from %s:\n%s\n"+
					"A diff here is a change to the reproduction's results: it belongs in CHANGES.md.\n"+
					"Regenerate with: go run ./cmd/indirectlab -exp %s -scale quick -seed 42 > cmd/indirectlab/%s",
					args, tc.golden, firstDiff(out.String(), string(want)), tc.exp, tc.golden)
			}
		}
	}
}

// firstDiff names the first line on which got and want disagree.
func firstDiff(got, want string) string {
	g, w := strings.Split(got, "\n"), strings.Split(want, "\n")
	for i := 0; i < len(g) && i < len(w); i++ {
		if g[i] != w[i] {
			return fmt.Sprintf("line %d:\n  got  %q\n  want %q", i+1, g[i], w[i])
		}
	}
	return fmt.Sprintf("got %d lines, want %d", len(g), len(w))
}
