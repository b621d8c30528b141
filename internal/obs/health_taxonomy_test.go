package obs

import "testing"

// TestFoldTaxonomyPerFaultClass pins the sample taxonomy the chaos suite
// depends on: each fault class the chaos layer injects surfaces at the
// monitor as a specific ErrClass, and each ErrClass folds in exactly one
// way. The load-bearing rows are the transport failures (a mid-stream
// upstream reset or a truncated body is a ClassFailed *sample* — the
// relay bug fixed alongside this test used to fold it as OK) and the
// cancellations (a client hanging up is ClassCanceled and must stay a
// *non*-sample: reaped losing probes would otherwise poison every
// healthy path's score).
func TestFoldTaxonomyPerFaultClass(t *testing.T) {
	cases := []struct {
		name  string
		fault string // the chaos fault class that produces this outcome
		class ErrClass
		retry bool
		// expected per-window counters after one fold
		ok, fail, retries int64
		sampled           bool // did the fold count at all (and create the entry)?
	}{
		{name: "clean transfer", fault: "none",
			class: ClassOK, ok: 1, sampled: true},
		{name: "mid-stream reset", fault: "reset",
			class: ClassFailed, fail: 1, sampled: true},
		{name: "truncated body (upstream FIN)", fault: "close",
			class: ClassFailed, fail: 1, sampled: true},
		{name: "slow-loris stall past deadline", fault: "stall",
			class: ClassTimeout, fail: 1, sampled: true},
		{name: "partitioned dial", fault: "partition",
			class: ClassFailed, fail: 1, sampled: true},
		{name: "corrupted range (verify failure)", fault: "corrupt",
			class: ClassFailed, fail: 1, sampled: true},
		{name: "origin status error", fault: "none",
			class: ClassStatus, fail: 1, sampled: true},
		{name: "client cancellation", fault: "none",
			class: ClassCanceled, sampled: false},
		{name: "transport retry", fault: "flap",
			class: ClassFailed, retry: true, retries: 1, sampled: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m := NewHealthMonitor(HealthConfig{})
			m.fold("path", 1.0, tc.class, 0.1, 4096, tc.retry)
			// A non-sample leaves no entry, exactly as if nothing happened:
			// nothing scoring 0 for a relay's self-reported health to
			// average in.
			ph, have := m.PathHealth("path")
			if have != tc.sampled {
				t.Fatalf("fault %s (%v): entry present %v, want %v", tc.fault, tc.class, have, tc.sampled)
			}
			if ph.Ok != tc.ok || ph.Failed != tc.fail || ph.Retries != tc.retries {
				t.Fatalf("fault %s (%v): folded ok=%d fail=%d retries=%d, want %d/%d/%d",
					tc.fault, tc.class, ph.Ok, ph.Failed, ph.Retries, tc.ok, tc.fail, tc.retries)
			}
		})
	}
}

// TestFoldTaxonomySequence drives a realistic chaos episode through one
// monitor — healthy traffic, then a burst of mid-stream resets with a
// client cancellation mixed in — and checks the cancellation changed
// nothing while the resets alone drove the verdict.
func TestFoldTaxonomySequence(t *testing.T) {
	m := NewHealthMonitor(HealthConfig{})
	for i := 0; i < 20; i++ {
		m.fold("p", float64(i), ClassOK, 0.05, 64<<10, false)
	}
	if st := view(m, "p").State; st != HealthHealthy {
		t.Fatalf("state after clean traffic = %v, want healthy", st)
	}
	before, _ := m.PathHealth("p")

	// A cancellation advances the monitor's clock (freshness may decay a
	// hair) but must not register as a sample: the window counters and
	// the verdict stay put.
	m.fold("p", 20.1, ClassCanceled, 0, 0, false)
	after, _ := m.PathHealth("p")
	if after.Ok != before.Ok || after.Failed != before.Failed || after.State != before.State {
		t.Fatalf("cancellation was sampled: before %+v after %+v", before, after)
	}

	for i := 0; i < 30; i++ {
		m.fold("p", 21+float64(i), ClassFailed, 0, 0, false)
	}
	if st := view(m, "p").State; st == HealthHealthy {
		t.Fatal("reset burst left the path healthy")
	}
	ph, _ := m.PathHealth("p")
	if ph.Failed < 30 {
		t.Fatalf("resets folded = %d, want all 30", ph.Failed)
	}
}
