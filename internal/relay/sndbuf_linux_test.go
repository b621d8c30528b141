//go:build linux

package relay

import (
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// acceptKeeper hands every connection its listener accepts to conns,
// still open, so a test can read its socket options.
type acceptKeeper struct {
	net.Listener
	conns chan *net.TCPConn
}

func (l *acceptKeeper) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	l.conns <- c.(*net.TCPConn)
	return c, nil
}

// The origin bounds the send buffer of the connection it accepts: after
// a GET, the socket reads the doubled bound (the kernel clamps a request
// to net.core.wmem_max first), not the tcp_wmem maximum an accepted
// loopback socket otherwise starts at.
func TestOriginBoundsSendBuffer(t *testing.T) {
	o := NewOriginServer()
	o.Put("obj.bin", 1<<20)
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	kept := &acceptKeeper{Listener: l, conns: make(chan *net.TCPConn, 1)}
	go o.Serve(kept)
	addr := l.Addr().String()

	c := dialKept(t, addr)
	if _, body := c.roundTrip("GET", addr, "obj.bin", 0, 1<<20); len(body) != 1<<20 || !VerifyRange("obj.bin", 0, body) {
		t.Fatalf("GET delivered %d bytes, not the canonical %d", len(body), 1<<20)
	}
	raw, err := (<-kept.conns).SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var got int
	var gerr error
	if err := raw.Control(func(fd uintptr) {
		got, gerr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_SNDBUF)
	}); err != nil || gerr != nil {
		t.Fatal(err, gerr)
	}
	want := 2 * originSendBuffer
	if b, err := os.ReadFile("/proc/sys/net/core/wmem_max"); err == nil {
		if max, err := strconv.Atoi(strings.TrimSpace(string(b))); err == nil && 2*max < want {
			want = 2 * max
		}
	}
	if got != want {
		t.Fatalf("accepted connection's SO_SNDBUF = %d, want %d (SetWriteBuffer(%d), doubled)", got, want, originSendBuffer)
	}
}
