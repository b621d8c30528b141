package objcache

import (
	"cmp"
	"os"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"unsafe"
)

// mapMin is the smallest buffer the cache carves out of its region.
// A buffer there is rounded up to whole pages, so from 64 KiB up the
// rounding wastes at most 1/16 of it; smaller buffers stay on the Go
// heap.
const mapMin = 64 << 10

var pageSize = os.Getpagesize()

// pagesOf is the number of whole pages n bytes take.
func pagesOf(n int64) int { return int((n + int64(pageSize) - 1) / int64(pageSize)) }

// mappedBytes totals the region pages of every cache in the process that
// are handed out as buffers and not back yet.
var mappedBytes atomic.Int64

// arena is the region outside the Go heap that a cache's span buffers of
// mapMin and up live in, so that a cache of N bytes costs about N
// resident rather than the N the heap holds plus the growth the GC
// allows it before its next cycle. The region is one anonymous mapping
// of twice the cache's bound, which costs address space only: a page
// becomes resident when a buffer is first written to it. A buffer is a
// run of whole pages; the run goes back to the free runs when the cache
// is done with the buffer, and the next buffer of any length takes the
// smallest free run that holds it, the lowest of equals, so pages are
// written again long before new ones are touched: the only call to the
// kernel after the region is made faults in, in one go, pages no buffer
// had before. When no free run holds a buffer it is a heap buffer
// instead.
//
// The arena is apart from the Cache, which points to it and is never
// pointed back to, so nothing a cache reaches can keep the arena alive:
// once the cache is collected so is the arena, and its finalizer unmaps
// the region. A relay has no Close.
type arena struct {
	region []byte  // nil when this build or the kernel gives none
	base   uintptr // &region[0]

	mu      sync.Mutex
	free    []run // the free page runs, by address; no two adjacent
	used    int64 // bytes of pages handed out and not back
	touched int   // pages from here up have never been handed out
}

// run is n pages from page at of the region.
type run struct{ at, n int }

func newArena(maxBytes int64) *arena {
	a := &arena{}
	if !offHeap || maxBytes < mapMin {
		return a
	}
	m, err := mapBytes(2 * int(maxBytes))
	if err != nil {
		return a
	}
	a.region, a.base = m, uintptr(unsafe.Pointer(&m[0]))
	a.free = []run{{0, len(m) / pageSize}}
	runtime.SetFinalizer(a, (*arena).unmap)
	return a
}

// alloc returns an empty buffer of capacity n: a run of the region's
// pages when n is at least mapMin and a free run holds it, a heap buffer
// otherwise.
func (a *arena) alloc(n int64) []byte {
	if a.region == nil || n < mapMin {
		return make([]byte, 0, n)
	}
	p := pagesOf(n)
	a.mu.Lock()
	best := -1
	for i, r := range a.free {
		if r.n >= p && (best < 0 || r.n < a.free[best].n) {
			best = i
			if r.n == p {
				break
			}
		}
	}
	if best < 0 {
		a.mu.Unlock()
		return make([]byte, 0, n)
	}
	at := a.free[best].at
	if a.free[best].n == p {
		a.free = slices.Delete(a.free, best, best+1)
	} else {
		a.free[best].at += p
		a.free[best].n -= p
	}
	a.used += int64(p * pageSize)
	var fresh []byte
	if end := at + p; end > a.touched {
		fresh = a.region[max(at, a.touched)*pageSize : end*pageSize]
		a.touched = end
	}
	a.mu.Unlock()
	if fresh != nil {
		populateBytes(fresh)
	}
	mappedBytes.Add(int64(p * pageSize))
	off := at * pageSize
	return a.region[off : off : off+int(n)]
}

// mapped reports whether b is a buffer of a's region.
func (a *arena) mapped(b []byte) bool {
	if a.region == nil || cap(b) == 0 {
		return false
	}
	p := uintptr(unsafe.Pointer(&b[:1][0]))
	return p >= a.base && p < a.base+uintptr(len(a.region))
}

// release gives b's pages back to the free runs if b is a buffer of a's
// region, whole, as alloc returned it; a heap buffer is left to the GC.
// Nobody may read b afterwards.
func (a *arena) release(b []byte) {
	if !a.mapped(b) {
		return
	}
	at := int(uintptr(unsafe.Pointer(&b[:1][0]))-a.base) / pageSize
	p := pagesOf(int64(cap(b)))
	a.mu.Lock()
	i, _ := slices.BinarySearchFunc(a.free, at, func(r run, at int) int { return cmp.Compare(r.at, at) })
	joinsPrev := i > 0 && a.free[i-1].at+a.free[i-1].n == at
	joinsNext := i < len(a.free) && at+p == a.free[i].at
	switch {
	case joinsPrev && joinsNext:
		a.free[i-1].n += p + a.free[i].n
		a.free = slices.Delete(a.free, i, i+1)
	case joinsPrev:
		a.free[i-1].n += p
	case joinsNext:
		a.free[i].at, a.free[i].n = at, a.free[i].n+p
	default:
		a.free = slices.Insert(a.free, i, run{at, p})
	}
	a.used -= int64(p * pageSize)
	a.mu.Unlock()
	mappedBytes.Add(-int64(p * pageSize))
}

// unmap is the finalizer: the cache is gone, and so is everyone who
// could read its buffers.
func (a *arena) unmap() {
	unmapBytes(a.region)
	mappedBytes.Add(-a.used)
}
