package main

import (
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
