package shaper

import (
	"io"
	"net"
	"testing"
	"time"
)

func TestBucketRateEnforcement(t *testing.T) {
	// Virtualized clock: inject now/sleep so the test is deterministic
	// and instant.
	var clock time.Duration
	b := newBucket(1000, 100) // 1000 bytes/sec, 100 burst
	b.now = func() time.Time { return time.Unix(0, int64(clock)) }
	b.sleep = func(d time.Duration) { clock += d }
	b.last = b.now()

	b.take(100) // burst drains instantly
	if clock != 0 {
		t.Fatalf("burst should not sleep, slept %v", clock)
	}
	b.take(500) // 500 bytes at 1000 B/s -> 0.5s
	if clock < 450*time.Millisecond || clock > 600*time.Millisecond {
		t.Fatalf("took %v for 500 bytes at 1000 B/s, want ~0.5s", clock)
	}
}

func TestBucketUnlimited(t *testing.T) {
	b := newBucket(0, 0)
	done := make(chan struct{})
	go func() {
		b.take(1 << 30)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("unlimited bucket blocked")
	}
	var nilBucket *bucket
	nilBucket.take(100) // nil-safe
}

func TestBucketLargerThanBurst(t *testing.T) {
	var clock time.Duration
	b := newBucket(10000, 100)
	b.now = func() time.Time { return time.Unix(0, int64(clock)) }
	b.sleep = func(d time.Duration) { clock += d }
	b.last = b.now()
	b.take(1000) // 10x burst: must loop, ~0.09-0.1s
	if clock < 80*time.Millisecond || clock > 150*time.Millisecond {
		t.Fatalf("took %v for 1000 bytes at 10000 B/s", clock)
	}
}

func TestShapedPipeThroughput(t *testing.T) {
	// Real sockets, coarse bounds: a 64 KB transfer at 1 Mb/s (125 kB/s)
	// should take roughly 0.5s (64k - 8k burst at 125 kB/s).
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const size = 64 << 10
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		buf := make([]byte, size)
		c.Write(buf)
	}()

	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := shape(raw, PathProfile{DownloadBps: 1e6})
	defer conn.Close()
	start := time.Now()
	n, err := io.ReadFull(conn, make([]byte, size))
	if err != nil || n != size {
		t.Fatalf("read %d err %v", n, err)
	}
	elapsed := time.Since(start)
	// 64 KiB minus 64 KiB burst... burst is 64 KiB so most passes free;
	// effective expectation: at least some shaping and not absurdly slow.
	if elapsed > 3*time.Second {
		t.Fatalf("shaped read took %v, too slow", elapsed)
	}
}

func TestShapedPipeRateBound(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const size = 192 << 10 // 3x burst
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Write(make([]byte, size))
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := shape(raw, PathProfile{DownloadBps: 4e6}) // 500 kB/s
	defer conn.Close()
	start := time.Now()
	if _, err := io.ReadFull(conn, make([]byte, size)); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start).Seconds()
	// (192-64) KiB beyond burst at 500 kB/s ≈ 0.26s minimum.
	if elapsed < 0.15 {
		t.Fatalf("shaping ineffective: %v s for %d bytes", elapsed, size)
	}
	if elapsed > 3 {
		t.Fatalf("shaping too aggressive: %v s", elapsed)
	}
}

func TestDialerProfiles(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()
	d := NewDialer()
	d.SetProfile(l.Addr().String(), PathProfile{DownloadBps: 1e6})
	conn, err := d.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := conn.(*Conn); !ok {
		t.Fatal("profiled dial did not shape")
	}
	conn.Close()

	// Second listener without profile passes through unshaped.
	l2, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	go func() {
		c, _ := l2.Accept()
		if c != nil {
			c.Close()
		}
	}()
	conn2, err := d.Dial("tcp", l2.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := conn2.(*Conn); ok {
		t.Fatal("unprofiled dial was shaped")
	}
	conn2.Close()
}

func TestLatencyInjection(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		c.Write([]byte("x"))
	}()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	conn := shape(raw, PathProfile{Latency: 80 * time.Millisecond})
	defer conn.Close()
	start := time.Now()
	if _, err := conn.Read(make([]byte, 1)); err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 70*time.Millisecond {
		t.Fatalf("first read took %v, want >= latency", elapsed)
	}
}
