package objcache

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"
)

// Tests for buffer reuse: no buffer is rewritten while anyone it was
// handed to can still read it. Buffer identity is checked by pointer.

func ptr(b []byte) *byte { return &b[:1][0] }

// A span evicted while a Read is inside fn keeps its buffer until fn
// returns; only then does Buffer hand it to the next fill.
func TestReadPinsSpanAcrossEviction(t *testing.T) {
	c := New(Config{MaxBytes: 200})
	c.Put("a", 0, pattern(0, 150))
	var held *byte
	hit := c.Read("a", 0, 150, func(data []byte) {
		held = ptr(data)
		c.Put("b", 0, pattern(0, 150)) // evicts a under the reader
		wantMiss(t, c, "a", 0, 150)
		fill := c.Buffer(150)
		if ptr(fill) == held {
			t.Fatal("Buffer handed out the buffer of a span a reader pins")
		}
		fill = append(fill, bytes.Repeat([]byte{0xEE}, 150)...)
		if !bytes.Equal(data, pattern(0, 150)) {
			t.Fatal("pinned bytes changed under the reader")
		}
	})
	if !hit {
		t.Fatal("miss on a fresh fill")
	}
	if ptr(c.Buffer(150)) != held {
		t.Fatal("the evicted span's buffer was not recycled once its reader returned")
	}
}

// A landed fill is pinned for every waiter that joined, until each has
// run fn or given up, whichever way its Wait goes.
func TestWaiterPinsTheFillUntilDoneOrCanceled(t *testing.T) {
	c := New(Config{MaxBytes: 200})
	fl, _ := c.StartFlight("a", 0, 150)
	join(t, c, fl, "a", 0, 150) // waits after the fill lands
	join(t, c, fl, "a", 0, 150) // gives up before it lands
	join(t, c, fl, "a", 0, 150) // gives up after it lands
	dead, cancel := context.WithCancel(context.Background())
	cancel()
	if err := fl.Wait(dead, func([]byte) { t.Error("canceled waiter was served") }); !errors.Is(err, context.Canceled) {
		t.Fatalf("waiter on a dead context returned %v", err)
	}

	fill := append(c.Buffer(150), pattern(0, 150)...)
	held := ptr(fill)
	fl.Complete(fill, nil)
	c.Put("b", 0, pattern(0, 150)) // evicts a; two waiters still hold it
	if ptr(c.Buffer(150)) == held {
		t.Fatal("Buffer handed out a fill its waiters have not read")
	}
	err := fl.Wait(context.Background(), func(data []byte) {
		if ptr(data) != held || !bytes.Equal(data, pattern(0, 150)) {
			t.Error("waiter not served the leader's bytes")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if ptr(c.Buffer(150)) == held {
		t.Fatal("Buffer handed out a fill a waiter still holds")
	}
	// Done and dead both ready: served or canceled, the pin goes.
	fl.Wait(dead, func([]byte) {})
	if ptr(c.Buffer(150)) != held {
		t.Fatal("the fill's buffer was not recycled after its last waiter")
	}
}

// Get's slice has no end to its use, so its span is never recycled.
func TestGetServedBufferIsNeverRecycled(t *testing.T) {
	c := New(Config{MaxBytes: 200})
	c.Put("a", 0, pattern(0, 150))
	got, _ := c.Get("a", 0, 150)
	c.Put("b", 0, pattern(0, 150)) // evicts a
	c.Put("a", 0, pattern(0, 150)) // evicts b, which nobody holds
	fill := c.Buffer(150)
	if ptr(fill) == ptr(got) {
		t.Fatal("Buffer handed out a span Get served")
	}
	fill = append(fill, make([]byte, 150)...)
	if !bytes.Equal(got, pattern(0, 150)) {
		t.Fatal("Get's bytes changed")
	}
}

// A completed fill that touches nothing is kept as the span; one that
// merges is copied, the fresh bytes win, and the handed-over buffer goes
// back to the free list without touching the span.
func TestCompleteHandsOffUnlessItMerges(t *testing.T) {
	c := New(Config{MaxBytes: 1 << 10})
	complete := func(key string, off int64, fill []byte) {
		fl, leader := c.StartFlight(key, off, int64(len(fill)))
		if !leader {
			t.Fatalf("%s: no other fill is in flight, yet StartFlight joined one", key)
		}
		fl.Complete(fill, nil)
	}
	alone := append(c.Buffer(100), pattern(0, 100)...)
	complete("alone", 0, alone)
	if got, ok := c.Get("alone", 0, 100); !ok || ptr(got) != ptr(alone) {
		t.Fatal("a completed fill that merges with nothing was copied")
	}

	c.Put("o", 0, pattern(0, 100))
	fresh := append(c.Buffer(150), bytes.Repeat([]byte{0xAB}, 150)...)
	complete("o", 50, fresh) // overlaps [50, 100): coalesces to [0, 200)
	want := append(pattern(0, 50), bytes.Repeat([]byte{0xAB}, 150)...)
	got, ok := c.Get("o", 0, 200)
	if !ok || ptr(got) == ptr(fresh) || !bytes.Equal(got, want) {
		t.Fatalf("merged completed fill: ok=%v, kept the handed-over buffer=%v, fresh bytes won=%v",
			ok, ok && ptr(got) == ptr(fresh), bytes.Equal(got, want))
	}
	reused := c.Buffer(150)
	if ptr(reused) != ptr(fresh) {
		t.Fatal("the merged handed-over buffer was not recycled")
	}
	reused = append(reused, make([]byte, 150)...)
	if !bytes.Equal(got, want) {
		t.Fatal("rewriting the recycled handed-over buffer changed the span")
	}
}

// Verify runs unlocked: a hook stuck on one key holds up no other
// lookup, and a span dropped while its check ran is not counted twice.
func TestVerifyRunsOutsideTheLock(t *testing.T) {
	entered, release := make(chan struct{}), make(chan bool)
	c := New(Config{MaxBytes: 200, Verify: func(key string, off int64, data []byte) bool {
		if key != "a" {
			return true
		}
		entered <- struct{}{}
		return <-release
	}})
	c.Put("a", 0, pattern(0, 100))
	c.Put("b", 0, pattern(0, 100))
	hit := make(chan bool)
	go func() {
		_, ok := c.Get("a", 0, 100)
		hit <- ok
	}()
	<-entered
	wantRange(t, c, "b", 0, 100) // would deadlock under a locked verify
	release <- true
	if !<-hit {
		t.Fatal("verified span missed")
	}

	go func() {
		_, ok := c.Get("a", 0, 100)
		hit <- ok
	}()
	<-entered
	c.Put("c", 0, pattern(0, 100)) // evicts b, the least recently used
	c.Put("d", 0, pattern(0, 100)) // evicts a while its check runs
	release <- false
	if <-hit {
		t.Fatal("a span that failed verification was served")
	}
	if s := c.Stats(); s.VerifyFailures != 1 || s.BytesCached != 200 || s.Spans != 2 {
		t.Fatalf("after a failed check on an evicted span: %+v", s)
	}
}

// Readers, leaders, waiters and Puts churn four cache slots over eight
// objects; every reader re-checks its bytes after yielding, so a buffer
// recycled under it shows as another object's content. At 4 KiB every
// buffer is a heap buffer; at 128 KiB the fills, and the 64 KiB halves
// that merge with them, take the pages of the cache's region that one
// another give back, except under the race detector.
func TestConcurrentReadersNeverSeeRecycledBytes(t *testing.T) {
	for _, size := range []int64{4 << 10, 2 * mapMin} {
		t.Run(fmt.Sprintf("%dKiB", size>>10), func(t *testing.T) { churn(t, size) })
	}
}

func churn(t *testing.T, size int64) {
	const objects, workers, ops = 8, 8, 500
	c := New(Config{MaxBytes: 4 * size})
	keys := make([]string, objects)
	contents := make([][]byte, objects)
	for k := range contents {
		keys[k] = fmt.Sprintf("k%d", k)
		contents[k] = make([]byte, size)
		for i := range contents[k] {
			contents[k][i] = byte(k*31 + i*7) // differs between objects at every offset
		}
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			for i := 0; i < ops; i++ {
				k := rng.Intn(objects)
				key, want := keys[k], contents[k]
				check := func(data []byte) {
					runtime.Gosched()
					if !bytes.Equal(data, want) {
						t.Errorf("%s: served bytes were rewritten", key)
					}
				}
				switch rng.Intn(5) {
				case 0:
					c.Read(key, 0, size, check)
				case 1:
					if data, ok := c.Get(key, 0, size); ok {
						check(data)
					}
				case 2:
					fl, leader := c.StartFlight(key, 0, size)
					if !leader {
						if err := fl.Wait(context.Background(), check); err != nil && !errors.Is(err, errCut) {
							t.Error(err)
						}
						continue
					}
					fill := append(c.Buffer(size), want[:size/2]...)
					runtime.Gosched()
					if rng.Intn(4) == 0 {
						fl.Complete(fill, errCut)
						continue
					}
					fl.Complete(append(fill, want[size/2:]...), nil)
				case 3:
					c.Put(key, 0, want)
				case 4:
					c.Put(key, size/2, want[size/2:]) // merges with a cached head
				}
			}
		}(rand.New(rand.NewSource(int64(w))))
	}
	wg.Wait()
	s := c.Stats()
	held, free := int64(0), int64(0)
	c.mu.Lock()
	for _, o := range c.objects {
		for _, sp := range o.spans {
			held += int64(len(sp.data))
		}
	}
	for _, b := range c.free {
		free += int64(cap(b))
	}
	c.mu.Unlock()
	if s.BytesCached > c.Capacity() || s.BytesCached != held {
		t.Fatalf("accounting after churn: %+v, spans hold %d bytes", s, held)
	}
	if m := mappedBy(c); m > s.BytesCached+free {
		t.Fatalf("%d bytes mapped, more than the %d cached plus the %d free", m, s.BytesCached, free)
	}
	for k, key := range keys {
		c.Read(key, 0, size, func(data []byte) {
			if !bytes.Equal(data, contents[k]) {
				t.Errorf("%s: cached bytes wrong after churn", key)
			}
		})
	}
}
