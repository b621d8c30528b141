package objcache

import (
	"bytes"
	"context"
	"errors"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
)

// join is a waiter's StartFlight: it must find fl open and not lead it.
func join(t *testing.T, c *Cache, fl *Flight, key string, off, n int64) {
	t.Helper()
	if f2, leader := c.StartFlight(key, off, n); leader || f2 != fl {
		t.Error("concurrent StartFlight did not join the open flight")
	}
}

// awaitParked yields until n waiters are parked in Wait.
func awaitParked(c *Cache, n int64) {
	for c.Stats().FlightWaiters != n {
		runtime.Gosched()
	}
}

// wait joins fl, the flight for [0, 100) of "o", and waits on it from a
// new goroutine, which sends Wait's error; fn must be served want.
func wait(t *testing.T, ctx context.Context, c *Cache, fl *Flight, want []byte) <-chan error {
	join(t, c, fl, "o", 0, 100)
	errc := make(chan error, 1)
	go func() {
		err := fl.Wait(ctx, func(data []byte) {
			if !bytes.Equal(data, want) {
				t.Error("waiter served the wrong bytes")
			}
		})
		errc <- err
	}()
	return errc
}

func TestSingleflightCollapsesConcurrentMisses(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	const waiters = 8

	fl, leader := c.StartFlight("o", 0, 100)
	if !leader {
		t.Fatal("first StartFlight is not the leader")
	}
	// A different range is a different flight.
	other, l := c.StartFlight("o", 100, 100)
	if !l {
		t.Fatal("distinct range joined the wrong flight")
	}
	other.Complete(nil, errors.New("unused"))

	var served int32
	var wg sync.WaitGroup
	for i := 0; i < waiters; i++ {
		join(t, c, fl, "o", 0, 100)
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := fl.Wait(context.Background(), func(data []byte) {
				if bytes.Equal(data, pattern(0, 100)) {
					atomic.AddInt32(&served, 1)
				}
			})
			if err != nil {
				t.Error(err)
			}
		}()
	}
	// Wait for every waiter to be parked before completing.
	awaitParked(c, waiters)
	fl.Complete(pattern(0, 100), nil)
	wg.Wait()

	if served != waiters {
		t.Fatalf("%d of %d waiters served", served, waiters)
	}
	s := c.Stats()
	if s.SharedFills != waiters || s.ActiveFlights != 0 {
		t.Fatalf("flight counters: %+v", s)
	}
	// The fill landed in the cache for everyone after.
	wantRange(t, c, "o", 0, 100)
}

func TestFlightFailureReleasesWaiters(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	fl, _ := c.StartFlight("o", 0, 100)
	boom := errors.New("origin down")

	errc := wait(t, context.Background(), c, fl, nil)
	awaitParked(c, 1)
	fl.Complete(nil, boom)
	if err := <-errc; !errors.Is(err, boom) {
		t.Fatalf("waiter error = %v, want the leader's", err)
	}
	wantMiss(t, c, "o", 0, 100)
	// The flight slot is free again: the next miss leads a fresh fill.
	if _, leader := c.StartFlight("o", 0, 100); !leader {
		t.Fatal("failed flight still registered")
	}
}

func TestWaiterCanceledWhileFillContinues(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 20})
	fl, _ := c.StartFlight("o", 0, 100)

	ctx, cancel := context.WithCancel(context.Background())
	errc := wait(t, ctx, c, fl, pattern(0, 100))
	awaitParked(c, 1)
	cancel()
	if err := <-errc; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled waiter returned %v", err)
	}

	// The fill is undisturbed: the leader completes afterwards and the
	// cache still warms for the next request.
	fl.Complete(pattern(0, 100), nil)
	wantRange(t, c, "o", 0, 100)
	s := c.Stats()
	if s.CanceledWaits != 1 || s.FlightWaiters != 0 {
		t.Fatalf("cancel counters: %+v", s)
	}
}

// A waiter must get the check a hit gets: a fill the Verify hook
// rejects is refused, counted, and never counted as shared.
func TestWaiterRefusesFillThatFailsVerification(t *testing.T) {
	c := New(Config{
		MaxBytes: 1 << 20,
		Verify:   func(key string, off int64, data []byte) bool { return data[0] == 0 },
	})
	fl, _ := c.StartFlight("o", 0, 100)
	errc := wait(t, context.Background(), c, fl, nil)
	awaitParked(c, 1)
	poisoned := pattern(0, 100)
	poisoned[0] = 0xff
	fl.Complete(poisoned, nil)
	if err := <-errc; !errors.Is(err, errCorruptFill) {
		t.Fatalf("waiter on a poisoned fill returned %v, want errCorruptFill", err)
	}
	if s := c.Stats(); s.VerifyFailures != 1 || s.SharedFills != 0 {
		t.Fatalf("counters after a refused fill: %+v", s)
	}
}
