package faultproxy

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// payloadServer is a minimal upstream: every accepted connection
// receives the same deterministic payload, then a clean close.
func payloadServer(t *testing.T, n int) (addr string, payload []byte) {
	t.Helper()
	payload = make([]byte, n)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(payload)
			}(c)
		}
	}()
	return l.Addr().String(), payload
}

func newProxy(t *testing.T, target, schedule string) *Proxy {
	t.Helper()
	p, err := Listen("127.0.0.1:0", target)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { p.Close() })
	if schedule != "" {
		p.SetSchedule(MustParse(schedule))
	}
	return p
}

// fetch dials the proxy and reads until EOF/error, with a hard deadline
// so no fault class can wedge the test itself.
func fetch(t *testing.T, addr string, deadline time.Duration) ([]byte, error) {
	t.Helper()
	c, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(deadline))
	var buf bytes.Buffer
	_, err = io.Copy(&buf, c)
	return buf.Bytes(), err
}

func TestProxyCleanPassThrough(t *testing.T) {
	origin, payload := payloadServer(t, 8<<10)
	p := newProxy(t, origin, "")
	got, err := fetch(t, p.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted through clean proxy (%d bytes)", len(got))
	}
}

func TestProxyMidStreamReset(t *testing.T) {
	origin, payload := payloadServer(t, 8<<10)
	// The stall before the reset gives the client time to drain the first
	// kilobyte: an RST discards undelivered data in the receive queue, so
	// without it the delivered count would race the reset. Same-offset
	// rules apply in list order.
	p := newProxy(t, origin, "conn=* phase=body@1024 stall=200ms\nconn=* phase=body@1024 reset")
	got, err := fetch(t, p.Addr(), 5*time.Second)
	if err == nil {
		t.Fatalf("read %d bytes with no error, want a reset", len(got))
	}
	if len(got) != 1024 {
		t.Fatalf("delivered %d bytes before the reset, want exactly 1024", len(got))
	}
	if !bytes.Equal(got, payload[:1024]) {
		t.Fatal("bytes before the reset were corrupted")
	}
}

func TestProxyMidStreamClose(t *testing.T) {
	origin, payload := payloadServer(t, 8<<10)
	p := newProxy(t, origin, "conn=* phase=body@512 close")
	got, err := fetch(t, p.Addr(), 5*time.Second)
	if err != nil {
		t.Fatalf("clean close surfaced as %v", err)
	}
	if len(got) != 512 || !bytes.Equal(got, payload[:512]) {
		t.Fatalf("delivered %d bytes, want the first 512 intact", len(got))
	}
}

func TestProxyCorruptRange(t *testing.T) {
	origin, payload := payloadServer(t, 8<<10)
	p := newProxy(t, origin, "conn=* phase=body@1024 corrupt=16")
	got, err := fetch(t, p.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(payload) {
		t.Fatalf("delivered %d bytes, want %d", len(got), len(payload))
	}
	for i := range got {
		want := payload[i]
		if i >= 1024 && i < 1040 {
			want ^= 0xff
		}
		if got[i] != want {
			t.Fatalf("byte %d = %#x, want %#x", i, got[i], want)
		}
	}
}

func TestProxyHeaderStall(t *testing.T) {
	origin, payload := payloadServer(t, 1<<10)
	p := newProxy(t, origin, "conn=* phase=headers stall=300ms")
	start := time.Now()
	got, err := fetch(t, p.Addr(), 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if elapsed := time.Since(start); elapsed < 250*time.Millisecond {
		t.Fatalf("first byte after %v, want a ≥300ms stall", elapsed)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted by stall")
	}
}

func TestProxyThrottle(t *testing.T) {
	origin, payload := payloadServer(t, 8<<10)
	p := newProxy(t, origin, "conn=* phase=body@0 throttle=16384")
	start := time.Now()
	got, err := fetch(t, p.Addr(), 10*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	// 8 KB at 16 KB/s with a 4 KB burst: at least ~250 ms on the wire.
	if elapsed := time.Since(start); elapsed < 150*time.Millisecond {
		t.Fatalf("throttled transfer finished in %v", elapsed)
	}
	if !bytes.Equal(got, payload) {
		t.Fatal("payload corrupted by throttle")
	}
}

func TestProxyBlackhole(t *testing.T) {
	origin, _ := payloadServer(t, 1<<10)
	p := newProxy(t, origin, "conn=* phase=body@0 blackhole")
	got, err := fetch(t, p.Addr(), 300*time.Millisecond)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("blackholed read returned (%d bytes, %v), want a timeout", len(got), err)
	}
	if len(got) != 0 {
		t.Fatalf("blackhole delivered %d bytes", len(got))
	}
}

func TestProxyPerConnRules(t *testing.T) {
	origin, payload := payloadServer(t, 2<<10)
	p := newProxy(t, origin, "conn=1 phase=dial refuse")
	if got, err := fetch(t, p.Addr(), 2*time.Second); err == nil && len(got) > 0 {
		t.Fatalf("conn 1 should have been refused, got %d bytes", len(got))
	}
	got, err := fetch(t, p.Addr(), 5*time.Second)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("conn 2 should pass clean: %d bytes, %v", len(got), err)
	}
}

func TestProxyPartitionAndHeal(t *testing.T) {
	origin, payload := payloadServer(t, 2<<10)
	p := newProxy(t, origin, "")

	p.SetPartitioned(true)
	if got, err := fetch(t, p.Addr(), 2*time.Second); err == nil && len(got) > 0 {
		t.Fatalf("partitioned fetch delivered %d bytes", len(got))
	}

	p.SetPartitioned(false)
	got, err := fetch(t, p.Addr(), 5*time.Second)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("healed fetch: %d bytes, %v", len(got), err)
	}
}

func TestProxySeverKillsLiveConns(t *testing.T) {
	// The origin writes half a body and holds the connection open until
	// the test ends, so every Sever lands mid-stream, and the body has no
	// length: only a transport error tells the client it was cut short.
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	hold := make(chan struct{})
	defer close(hold)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				c.Write(make([]byte, 1024))
				<-hold
			}(c)
		}
	}()
	p := newProxy(t, l.Addr().String(), "")

	half := make([]byte, 1024)
	for i := 0; i < 300; i++ {
		c, err := net.Dial("tcp", p.Addr())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		// The first half arriving means the splice is live and tracked.
		if _, err := io.ReadFull(c, half); err != nil {
			t.Fatalf("sever %d: first half: %v", i, err)
		}
		p.Sever()
		_, err = io.Copy(io.Discard, c)
		c.Close()
		if err == nil {
			t.Fatalf("sever %d: severed transfer completed cleanly", i)
		}
	}
}
