package objcache

import (
	"context"
	"errors"
	"strconv"
)

// errCorruptFill is what Wait returns when the leader's bytes fail the
// cache's Verify hook: the waiter must fetch for itself.
var errCorruptFill = errors.New("objcache: shared fill failed verification")

// Flight is one in-progress fill of an object range: the first request
// to miss becomes the leader and fetches from the origin; every
// concurrent miss for the same object/range becomes a waiter and is
// served from the leader's fill when it lands — N concurrent misses
// cost the origin exactly one fetch.
type Flight struct {
	c    *Cache
	fkey string
	key  string
	off  int64

	// Guarded by c.mu. waiters counts the joins Complete must pin the
	// fill for: every StartFlight that joined, less those whose Wait gave
	// up before the fill landed. landed is set by Complete.
	waiters int
	landed  bool

	done chan struct{}
	span *span  // the span holding data, pinned once per waiter; nil if none
	data []byte // the fill's bytes as waiters are served them
	err  error
}

func flightKey(key string, off, n int64) string {
	return key + "\x00" + strconv.FormatInt(off, 10) + "\x00" + strconv.FormatInt(n, 10)
}

// StartFlight joins or opens the fill for [off, off+n) of the object
// named key. leader reports whether the caller owns the fill: a leader
// must eventually call Complete exactly once (with the fetched bytes or
// the fetch error); everyone else must call Wait on the same Flight
// exactly once, because joining reserves a pin that Wait releases.
func (c *Cache) StartFlight(key string, off, n int64) (f *Flight, leader bool) {
	fkey := flightKey(key, off, n)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.flights[fkey]; f != nil {
		f.waiters++
		return f, false
	}
	f = &Flight{c: c, fkey: fkey, key: key, off: off, done: make(chan struct{})}
	c.flights[fkey] = f
	return f, true
}

// Complete publishes the leader's fill: on success the cache takes
// ownership of data — kept as the span itself, or coalesced as any Put
// does, after which data is recycled — and every waiter
// is served from the span holding it, pinned for them in the same step;
// on error the waiters are released with the error and fall back to
// their own fetches. Either way data is the cache's again, and a buffer
// from Buffer must come back this way, failed fill or not: a fill that
// ends with nothing stored releases it. Complete must be called exactly
// once, and only by the leader, who must not touch data afterwards.
func (f *Flight) Complete(data []byte, err error) {
	c := f.c
	c.mu.Lock()
	var s *span
	if err == nil {
		f.data = data
		if s = c.putLocked(f.key, f.off, data, true, f.waiters); s != nil {
			f.span = s
			at := f.off - s.off
			f.data = s.data[at : at+int64(len(data)) : at+int64(len(data))]
		}
	}
	if s == nil {
		// Nothing was stored. A buffer of the region is empty here, as
		// Buffer takes none larger than the cache from it, so no waiter
		// reads it.
		c.arena.release(data)
	}
	f.err = err
	f.landed = true
	delete(c.flights, f.fkey)
	c.mu.Unlock()
	close(f.done)
}

// Wait blocks until the leader completes the fill, then runs fn on the
// fill's bytes and returns nil; or returns the leader's error, or ctx's
// if it dies first. A canceled waiter detaches without disturbing the
// fill — the leader keeps streaming and the cache still warms for
// everyone after. With a Verify hook configured the bytes get the check
// Get gives a hit before fn sees them: a poisoned fill counts a verify
// failure and returns errCorruptFill. The bytes are the cache's, pinned
// until fn returns: fn must treat them as read-only and not keep them.
func (f *Flight) Wait(ctx context.Context, fn func([]byte)) error {
	c := f.c
	c.mu.Lock()
	c.flightWaiters++
	c.mu.Unlock()
	select {
	case <-f.done:
	case <-ctx.Done():
		c.mu.Lock()
		c.flightWaiters--
		c.canceledWaits++
		if f.landed {
			f.unpinLocked()
		} else {
			f.waiters--
		}
		c.mu.Unlock()
		return ctx.Err()
	}
	err := f.err
	corrupt := err == nil && c.cfg.Verify != nil && !c.cfg.Verify(f.key, f.off, f.data)
	if corrupt {
		err = errCorruptFill
	}
	if err == nil {
		c.mu.Lock()
		c.sharedFills++
		c.mu.Unlock()
		fn(f.data)
	}
	c.mu.Lock()
	if corrupt {
		c.verifyFailures++
	}
	c.flightWaiters--
	f.unpinLocked()
	c.mu.Unlock()
	return err
}

// unpinLocked releases one waiter's pin on the landed fill. Callers
// hold c.mu.
func (f *Flight) unpinLocked() {
	if f.span != nil {
		f.c.unpinLocked(f.span)
	}
}
