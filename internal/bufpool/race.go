//go:build race

package bufpool

// RaceEnabled reports whether the race detector is on. It makes
// sync.Pool drop a share of what is Put, on purpose, so the tests that
// pin the allocation counts of pooled paths stand down under it.
const RaceEnabled = true
