package experiment

import (
	"path/filepath"
	"testing"
)

// TestRunChaos drives the whole campaign at test scale and asserts the
// acceptance line: every fault class produced the expected verdict, the
// monitor recovered after every heal, nothing ran past its deadline,
// and the cache never served a corrupted span.
func TestRunChaos(t *testing.T) {
	dir := t.TempDir()
	res := RunChaos(ChaosParams{
		Seed:         7,
		Transfers:    10,
		SimTransfers: 12,
		BundleDir:    dir,
	})
	if len(res.Entries) != 9 {
		t.Fatalf("campaign covered %d fault classes, want 9", len(res.Entries))
	}
	for _, e := range res.Entries {
		t.Logf("%-16s %-4s transfers=%d failures=%d verdict=%s ok=%v recovered=%v bundles=%d max=%.3fs",
			e.Class, e.Mode, e.Transfers, e.Failures, e.Verdict, e.VerdictOK, e.Recovered, e.Bundles, e.MaxTransfer)
		if !e.VerdictOK {
			t.Errorf("%s: verdict %s not among the expected states", e.Class, e.Verdict)
		}
		if !e.Recovered {
			t.Errorf("%s: monitor never recovered after heal", e.Class)
		}
		if e.DeadlineExceeded != 0 {
			t.Errorf("%s: %d transfers ran past their deadline", e.Class, e.DeadlineExceeded)
		}
		if e.CorruptDeliveries != 0 {
			t.Errorf("%s: %d corrupt spans served from cache", e.Class, e.CorruptDeliveries)
		}
		if e.Class != "corrupted-range" && e.Mode == "live" && e.Failures == 0 {
			t.Errorf("%s: fault phase produced no failures — injection inert?", e.Class)
		}
	}
	// The relay's fold saw the failure iff the transport failed: the
	// verdicts above are down for the hard-failing classes and healthy for
	// corrupted-range. The flight trigger engine follows the same split. A
	// hard-failing class captures exactly one rate-limited debug bundle,
	// fired by the faulted path's health-down edge and carrying its wide
	// events and at least one stitched trace; a transport-clean class
	// captures none.
	for _, e := range res.Entries {
		switch e.Class {
		case "partition", "slow-loris", "mid-stream-reset":
			files, _ := filepath.Glob(filepath.Join(dir, e.Class, "*.json"))
			if len(files) != 1 || filepath.Base(files[0]) != "bundle-000001-health-down.json" {
				t.Errorf("%s: persisted bundles %v, want one bundle-000001-health-down.json", e.Class, files)
			}
			if e.Bundles != 1 {
				t.Errorf("%s: trigger engine captured %d bundles, want exactly 1", e.Class, e.Bundles)
			}
			if e.BundleEvents == 0 {
				t.Errorf("%s: bundle carries no wide events for the faulted path", e.Class)
			}
			if e.BundleTraces == 0 {
				t.Errorf("%s: bundle carries no stitched traces", e.Class)
			}
		case "flap":
			// A flapping path may settle at degraded without ever firing a
			// trigger, or go down and fire one — but never more than one
			// inside the rate-limit window.
			if e.Bundles > 1 {
				t.Errorf("flap: trigger engine captured %d bundles, want at most 1", e.Bundles)
			}
		case "corrupted-range":
			if e.Bundles != 0 {
				t.Errorf("corrupted-range: %d bundles captured on a transport-clean path", e.Bundles)
			}
		}
	}
	if !res.AllVerdictsOK || !res.AllRecovered {
		t.Errorf("campaign rollup: verdicts_ok=%v recovered=%v", res.AllVerdictsOK, res.AllRecovered)
	}
	if res.TotalDeadlineExceeded != 0 || res.TotalCorruptDeliveries != 0 {
		t.Errorf("campaign rollup: deadline_exceeded=%d corrupt=%d",
			res.TotalDeadlineExceeded, res.TotalCorruptDeliveries)
	}
}

// TestLiveChaosDeterministic: the live classes run their monitor on a
// logical clock, so one seed gives one scorecard — every column but
// MaxTransfer, which is wall time. Slow-loris is left out: its stall
// runs against the relay's wall-clock guard (and costs 300 ms a fetch).
func TestLiveChaosDeterministic(t *testing.T) {
	p := ChaosParams{Seed: 7, Transfers: 8}.withDefaults()
	run := func() []ChaosEntry {
		var out []ChaosEntry
		for _, l := range liveClasses(p) {
			if l.name == "slow-loris" {
				continue
			}
			e := runLiveChaos(l, p)
			e.MaxTransfer = 0
			out = append(out, e)
		}
		return out
	}
	first, second := run(), run()
	for i := range first {
		t.Logf("%+v", first[i])
		if first[i] != second[i] {
			t.Errorf("%s: runs differ:\n%+v\n%+v", first[i].Class, first[i], second[i])
		}
	}
}
