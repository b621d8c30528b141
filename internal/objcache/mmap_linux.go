//go:build !race

package objcache

import "syscall"

// offHeap reports whether span buffers get a region of their own.
const offHeap = true

// mapBytes returns a private anonymous mapping of at least n bytes, in
// whole pages. It reserves address space only: no page is resident, or
// counted against memory, until it is written.
func mapBytes(n int) ([]byte, error) {
	n = pagesOf(int64(n)) * pageSize
	return syscall.Mmap(-1, 0, n, syscall.PROT_READ|syscall.PROT_WRITE,
		syscall.MAP_ANON|syscall.MAP_PRIVATE|syscall.MAP_NORESERVE)
}

// populateBytes faults in the pages of b, part of a mapping from
// mapBytes, writable, in one call (Linux 5.14), at about half the cost
// of a fault per page as b is written. An older kernel refuses it, and
// the pages then fault as they are written, so the error is dropped.
func populateBytes(b []byte) { _ = syscall.Madvise(b, 23 /* MADV_POPULATE_WRITE */) }

// unmapBytes returns a mapping from mapBytes to the kernel.
func unmapBytes(m []byte) {
	if err := syscall.Munmap(m); err != nil {
		panic("objcache: munmap: " + err.Error())
	}
}
