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

	done chan struct{}
	data []byte
	err  error
}

func flightKey(key string, off, n int64) string {
	return key + "\x00" + strconv.FormatInt(off, 10) + "\x00" + strconv.FormatInt(n, 10)
}

// StartFlight joins or opens the fill for [off, off+n) of the object
// named key. leader reports whether the caller owns the fill: a leader
// must eventually call Complete exactly once (with the fetched bytes or
// the fetch error); everyone else waits on the same Flight with Wait.
func (c *Cache) StartFlight(key string, off, n int64) (f *Flight, leader bool) {
	fkey := flightKey(key, off, n)
	c.mu.Lock()
	defer c.mu.Unlock()
	if f := c.flights[fkey]; f != nil {
		return f, false
	}
	f = &Flight{c: c, fkey: fkey, key: key, off: off, done: make(chan struct{})}
	c.flights[fkey] = f
	return f, true
}

// Complete publishes the leader's fill: on success the bytes are
// inserted into the cache (coalescing as any Put does) and handed to
// every waiter; on error the waiters are released with the error and
// fall back to their own fetches. Complete must be called exactly once,
// and only by the leader.
func (f *Flight) Complete(data []byte, err error) {
	if err == nil {
		f.c.Put(f.key, f.off, data)
		f.data = data
	}
	f.err = err
	f.c.mu.Lock()
	delete(f.c.flights, f.fkey)
	f.c.mu.Unlock()
	close(f.done)
}

// Wait blocks until the leader completes the fill (returning its bytes
// or its error) or ctx dies first. A canceled waiter detaches without
// disturbing the fill — the leader keeps streaming and the cache still
// warms for everyone after. With a Verify hook configured the leader's
// bytes get the check Get gives a hit before a waiter is handed them: a
// poisoned fill counts a verify failure and returns errCorruptFill.
func (f *Flight) Wait(ctx context.Context) ([]byte, error) {
	f.c.mu.Lock()
	f.c.flightWaiters++
	f.c.mu.Unlock()
	defer func() {
		f.c.mu.Lock()
		f.c.flightWaiters--
		f.c.mu.Unlock()
	}()
	select {
	case <-f.done:
		if f.err != nil {
			return nil, f.err
		}
		if verify := f.c.cfg.Verify; verify != nil && !verify(f.key, f.off, f.data) {
			f.c.mu.Lock()
			f.c.verifyFailures++
			f.c.mu.Unlock()
			return nil, errCorruptFill
		}
		f.c.mu.Lock()
		f.c.sharedFills++
		f.c.mu.Unlock()
		return f.data, nil
	case <-ctx.Done():
		f.c.mu.Lock()
		f.c.canceledWaits++
		f.c.mu.Unlock()
		return nil, ctx.Err()
	}
}
