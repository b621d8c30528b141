package objcache_test

import (
	"bufio"
	"net"
	"testing"

	"repro/internal/httpx"
	"repro/internal/objcache"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// A relay hands every fill buffer back to its cache, the ones whose fill
// fails included: an upstream cut mid-body, a HEAD, whose answer carries
// no body to fill the buffer its length asked for, and an error status,
// each repeated, leave nothing mapped.
func TestRelayFailedFillsLeaveNoMapping(t *testing.T) {
	const size = 256 << 10 // a fill in a mapping of its own
	origin := relay.NewOriginServer()
	origin.Put("obj.bin", size)
	ln, err := shaper.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	ln.SetFaults(shaper.Fault{At: size / 2, Do: shaper.Reset})
	go origin.Serve(ln)
	originAddr := ln.Addr().String()
	busyAddr := serveBusy(t)

	r := relay.New(relay.WithCache(1 << 20))
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { rl.Close() })
	relayAddr := rl.Addr().String()

	base := objcache.MappedBytes()
	for i := 0; i < 8; i++ {
		if body, err := relay.FetchVia(nil, relayAddr, originAddr, "obj.bin", 0, size); err == nil && len(body) == size {
			t.Fatal("a body cut upstream arrived whole")
		}
		if status := head(t, relayAddr, originAddr, "obj.bin"); status != 200 {
			t.Fatalf("HEAD answered %d", status)
		}
		if body, err := relay.FetchVia(nil, relayAddr, busyAddr, "obj.bin", 0, size); err == nil && len(body) == size {
			t.Fatal("a 503 read as the object")
		}
		r.WaitIdle()
		if m := objcache.MappedBytes(); m > base {
			t.Fatalf("round %d: %d bytes left mapped by fills that failed", i, m-base)
		}
	}
	if s := r.Cache().Stats(); s.BytesCached != 0 || s.Fills != 0 {
		t.Fatalf("failed fills were cached: %+v", s)
	}
}

// head sends a HEAD for name at originAddr through the relay and returns
// the answer's status.
func head(t *testing.T, relayAddr, originAddr, name string) int {
	t.Helper()
	conn, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := httpx.NewGet("http://"+originAddr+"/"+name, originAddr)
	req.Method = "HEAD"
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	return resp.Status
}

// serveBusy starts an upstream that answers every request 503 and hangs
// up, and returns its address.
func serveBusy(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				if _, err := httpx.ReadRequest(bufio.NewReader(conn)); err == nil {
					conn.Write([]byte("HTTP/1.1 503 Service Unavailable\r\ncontent-length: 5\r\nconnection: close\r\n\r\nbusy\n"))
				}
			}()
		}
	}()
	return ln.Addr().String()
}
