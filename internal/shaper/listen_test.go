package shaper

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"
)

// listen starts a Listener with the given faults and serves every
// connection it lets through with serve, on its own goroutine.
func listen(t *testing.T, serve func(net.Conn), faults ...Fault) *Listener {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	l.SetFaults(faults...)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go serve(c)
		}
	}()
	return l
}

// payloadListener serves every connection the same deterministic
// payload, then closes it.
func payloadListener(t *testing.T, n int, faults ...Fault) (*Listener, []byte) {
	t.Helper()
	payload := make([]byte, n)
	for i := range payload {
		payload[i] = byte(i*31 + 7)
	}
	l := listen(t, func(c net.Conn) {
		defer c.Close()
		c.Write(payload)
	}, faults...)
	return l, payload
}

// fetch dials the listener and reads until EOF or an error, with a hard
// deadline so no fault can wedge the test itself.
func fetch(t *testing.T, l *Listener, deadline time.Duration) ([]byte, error) {
	t.Helper()
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		return nil, err
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(deadline))
	var buf bytes.Buffer
	_, err = io.Copy(&buf, c)
	return buf.Bytes(), err
}

func TestListenerCleanPassThrough(t *testing.T) {
	l, payload := payloadListener(t, 8<<10)
	got, err := fetch(t, l, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, payload) {
		t.Fatalf("payload corrupted through a clean listener (%d bytes)", len(got))
	}
}

func TestFaultMidStreamReset(t *testing.T) {
	// The stall before the reset gives the client time to drain the first
	// kilobyte: an RST discards undelivered data in the receive queue, so
	// without it the delivered count would race the reset. Faults at the
	// same byte fire in the order given.
	l, payload := payloadListener(t, 8<<10,
		Fault{At: 1024, Do: Stall, Dur: 200 * time.Millisecond},
		Fault{At: 1024, Do: Reset})
	got, err := fetch(t, l, 5*time.Second)
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

func TestFaultMidStreamClose(t *testing.T) {
	l, payload := payloadListener(t, 8<<10, Fault{At: 512, Do: Close})
	got, err := fetch(t, l, 5*time.Second)
	if err != nil {
		t.Fatalf("clean close surfaced as %v", err)
	}
	if len(got) != 512 || !bytes.Equal(got, payload[:512]) {
		t.Fatalf("delivered %d bytes, want the first 512 intact", len(got))
	}
}

func TestFaultCorruptRange(t *testing.T) {
	l, payload := payloadListener(t, 8<<10, Fault{At: 1024, Do: Corrupt, Len: 16})
	got, err := fetch(t, l, 5*time.Second)
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

// TestFaultCorruptLeavesWriterBuffer: the flipped bytes are a private
// copy. A relay writes cached spans straight to the connection, and a
// fault must not poison the cache behind it.
func TestFaultCorruptLeavesWriterBuffer(t *testing.T) {
	buf := bytes.Repeat([]byte{0x5a}, 4<<10)
	wrote := make(chan struct{})
	l := listen(t, func(c net.Conn) {
		defer c.Close()
		c.Write(buf)
		close(wrote)
	}, Fault{At: 100, Do: Corrupt, Len: 64})
	got, err := fetch(t, l, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	<-wrote
	if !bytes.Equal(buf, bytes.Repeat([]byte{0x5a}, 4<<10)) {
		t.Fatal("corrupt fault flipped the writer's own buffer")
	}
	if got[99] != 0x5a || got[100] != 0xa5 || got[163] != 0xa5 || got[164] != 0x5a {
		t.Fatalf("corrupt span misplaced: got[99..100]=%#x %#x got[163..164]=%#x %#x",
			got[99], got[100], got[163], got[164])
	}
}

func TestFaultHeaderStall(t *testing.T) {
	l, payload := payloadListener(t, 1<<10, Fault{Do: Stall, Dur: 300 * time.Millisecond})
	start := time.Now()
	got, err := fetch(t, l, 5*time.Second)
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

func TestFaultThrottle(t *testing.T) {
	l, payload := payloadListener(t, 8<<10, Fault{Do: Throttle, Rate: 16384})
	start := time.Now()
	got, err := fetch(t, l, 10*time.Second)
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

func TestFaultBlackhole(t *testing.T) {
	// The server writes and closes at once; the blackhole swallows both
	// the bytes and the FIN.
	l, _ := payloadListener(t, 1<<10, Fault{Do: Blackhole})
	got, err := fetch(t, l, 300*time.Millisecond)
	ne, ok := err.(net.Error)
	if !ok || !ne.Timeout() {
		t.Fatalf("blackholed read returned (%d bytes, %v), want a timeout", len(got), err)
	}
	if len(got) != 0 {
		t.Fatalf("blackhole delivered %d bytes", len(got))
	}
}

func TestFaultPerConnRefuse(t *testing.T) {
	l, payload := payloadListener(t, 2<<10,
		Fault{Conn: 1, Do: Refuse},
		Fault{Conn: 2, At: -1, Do: Close})
	if got, err := fetch(t, l, 2*time.Second); err == nil && len(got) > 0 {
		t.Fatalf("conn 1 should have been refused, got %d bytes", len(got))
	}
	if got, err := fetch(t, l, 2*time.Second); err != nil || len(got) > 0 {
		t.Fatalf("conn 2 should have been closed at accept, got %d bytes, %v", len(got), err)
	}
	got, err := fetch(t, l, 5*time.Second)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("conn 3 should pass clean: %d bytes, %v", len(got), err)
	}
	if n := l.Accepted(); n != 3 {
		t.Fatalf("accepted %d connections, want 3", n)
	}
}

func TestListenerPartitionAndHeal(t *testing.T) {
	l, payload := payloadListener(t, 2<<10)

	l.Sever()
	l.SetFaults(Fault{Do: Refuse})
	if got, err := fetch(t, l, 2*time.Second); err == nil && len(got) > 0 {
		t.Fatalf("partitioned fetch delivered %d bytes", len(got))
	}

	l.SetFaults()
	got, err := fetch(t, l, 5*time.Second)
	if err != nil || !bytes.Equal(got, payload) {
		t.Fatalf("healed fetch: %d bytes, %v", len(got), err)
	}
}

func TestListenerSeverKillsLiveConns(t *testing.T) {
	// The server writes half a body and holds the connection open until
	// the test ends, so every Sever lands mid-stream, and the body has no
	// length: only a transport error tells the client it was cut short.
	hold := make(chan struct{})
	defer close(hold)
	l := listen(t, func(c net.Conn) {
		defer c.Close()
		c.Write(make([]byte, 1024))
		<-hold
	})

	half := make([]byte, 1024)
	for i := 0; i < 300; i++ {
		c, err := net.Dial("tcp", l.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		c.SetDeadline(time.Now().Add(5 * time.Second))
		// The first half arriving means the server holds the connection.
		if _, err := io.ReadFull(c, half); err != nil {
			t.Fatalf("sever %d: first half: %v", i, err)
		}
		l.Sever()
		_, err = io.Copy(io.Discard, c)
		c.Close()
		if err == nil {
			t.Fatalf("sever %d: severed transfer completed cleanly", i)
		}
	}
}

// TestListenerCloseEndsStall: a stall holds the server's Write, and
// closing the listener must release it at once, not when the stall
// would have run out.
func TestListenerCloseEndsStall(t *testing.T) {
	started, released := make(chan struct{}), make(chan error, 1)
	l := listen(t, func(c net.Conn) {
		defer c.Close()
		close(started)
		_, err := c.Write([]byte("never"))
		released <- err
	}, Fault{Do: Stall, Dur: 30 * time.Second})
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	<-started
	start := time.Now()
	l.Close()
	select {
	case err := <-released:
		if err == nil {
			t.Fatal("stalled write reported success after Close")
		}
		if waited := time.Since(start); waited > time.Second {
			t.Fatalf("stall ended %v after Close", waited)
		}
	case <-time.After(time.Second):
		t.Fatal("Close left a 30 s stall running")
	}
}

// TestListenerRateReachesOpenConns: a rate set mid-run applies to a
// connection already carrying data, as a congested path would.
func TestListenerRateReachesOpenConns(t *testing.T) {
	next := make(chan struct{})
	l := listen(t, func(c net.Conn) {
		defer c.Close()
		c.Write(make([]byte, 1024))
		<-next
		c.Write(make([]byte, 12<<10))
	})
	c, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(10 * time.Second))
	if _, err := io.ReadFull(c, make([]byte, 1024)); err != nil {
		t.Fatal(err)
	}
	l.SetProfile(PathProfile{DownloadBps: 8 * 16384}) // 16 KB/s
	close(next)
	start := time.Now()
	if _, err := io.ReadFull(c, make([]byte, 12<<10)); err != nil {
		t.Fatal(err)
	}
	// 12 KB at 16 KB/s past a 4 KB burst: ~500 ms.
	if elapsed := time.Since(start); elapsed < 300*time.Millisecond {
		t.Fatalf("12 KB arrived in %v after the rate dropped to 16 KB/s", elapsed)
	}
}
