package experiment

import "testing"

// TestCacheEgressReduction is the tentpole acceptance check: 10 clients
// fetching a shared catalog through a caching relay must cut origin
// egress at least 5x against the cacheless baseline.
func TestCacheEgressReduction(t *testing.T) {
	r := RunCacheEgress(CacheEgressParams{
		Objects:    4,
		ObjectSize: 32 << 10, // small objects keep the live-TCP run fast
	})
	wantBaseline := int64(egressClients * 4 * (32 << 10))
	if r.BaselineEgress != wantBaseline {
		t.Fatalf("baseline egress = %d, want %d (every fetch billed to the origin)", r.BaselineEgress, wantBaseline)
	}
	if r.Reduction < 5 {
		t.Fatalf("egress reduction %.1fx, want >= 5x (baseline %d, cached %d)",
			r.Reduction, r.BaselineEgress, r.CachedEgress)
	}
	// The cache's own ledger agrees with the egress counter: each object
	// filled from the origin, everything else hits or shared fills.
	s := r.CacheStats
	if s.FillBytes != r.CachedEgress {
		t.Fatalf("cache fill bytes %d != origin egress %d", s.FillBytes, r.CachedEgress)
	}
	// Each request is exactly one of the three, however the clients
	// interleave.
	if got, want := s.Hits+s.SharedFills+s.Fills, int64(egressClients*4); got != want {
		t.Fatalf("hits %d + shared fills %d + fills %d = %d, want one per request, %d",
			s.Hits, s.SharedFills, s.Fills, got, want)
	}
	if s.Hits+s.SharedFills == 0 {
		t.Fatalf("no cache sharing recorded: %+v", s)
	}
}
