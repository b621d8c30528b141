//go:build !linux || race

package objcache

// offHeap reports whether span buffers get a region of their own. They
// do not here: off Linux, and under the race detector, which sees no
// memory outside the Go heap, so the tests that churn span buffers under
// it keep checking every byte. Every buffer is a heap buffer.
const offHeap = false

func mapBytes(int) ([]byte, error) { panic("objcache: no mappings on this build") }

func populateBytes([]byte) { panic("objcache: no mappings on this build") }

func unmapBytes([]byte) { panic("objcache: no mappings on this build") }
