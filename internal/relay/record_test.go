package relay

import (
	"bufio"
	"fmt"
	"io"
	"net"
	"reflect"
	"testing"

	"repro/internal/httpx"
	"repro/internal/obs/flight"
	"repro/internal/shaper"
)

// TestStateLandsBeforeTheFinalByte is the regression test for counters
// and the cache commit trailing the response: the moment a client's read
// returns, the origin has counted every byte it served, the relay every
// byte it relayed, and the fill is in the cache — by construction, so
// there is no barrier and no sleep between the read and the assertions.
func TestStateLandsBeforeTheFinalByte(t *testing.T) {
	const size = 256 << 10
	o := NewOriginServer()
	for i := 0; i < 40; i++ {
		o.Put(fmt.Sprintf("obj%d.bin", i), size)
	}
	ol, err := o.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	originAddr := ol.Addr().String()
	r, relayAddr := startCachedRelay(t, 64<<20)

	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("obj%d.bin", i)
		body, how, err := fetchWhole(relayAddr, originAddr, name)
		if err != nil || how != "miss" || len(body) != size {
			t.Fatalf("%s: x-cache=%q, %d bytes, %v", name, how, len(body), err)
		}
		want := int64(i+1) * size
		if got := o.BytesServed.Load(); got != want {
			t.Fatalf("%s: origin counted %d bytes with the client holding %d", name, got, want)
		}
		if got := r.BytesRelayed.Load(); got != 2*want-size {
			t.Fatalf("%s: relay counted %d bytes with the client holding %d", name, got, 2*want-size)
		}
		s := r.Cache().Stats()
		if s.Fills != int64(i+1) || s.Hits != int64(i) || s.ActiveFlights != 0 {
			t.Fatalf("%s: cache counters trail the response: %+v", name, s)
		}
		// The very next request for the range is a hit.
		if _, how, err := fetchWhole(relayAddr, originAddr, name); err != nil || how != "hit" {
			t.Fatalf("%s: repeat x-cache=%q, %v", name, how, err)
		}
		if got := o.BytesServed.Load(); got != want {
			t.Fatalf("%s: the repeat cost the origin %d bytes", name, got-want)
		}
	}
}

// reply is what a client saw of one exchange through a relay.
type reply struct {
	status int
	header map[string]string
	body   []byte
	failed bool // the body ended before Content-Length
}

// exchange issues one GET through the relay and reads up to limit body bytes
// (all of it when limit < 0) before closing the connection.
func exchange(t *testing.T, relayAddr, originAddr, name, rg string, limit int64) reply {
	t.Helper()
	conn, err := net.Dial("tcp", relayAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	req := httpx.NewGet("http://"+originAddr+"/"+name, originAddr)
	if rg != "" {
		req.Header["range"] = rg
	}
	if err := req.Write(conn); err != nil {
		t.Fatal(err)
	}
	resp, err := httpx.ReadResponse(bufio.NewReader(conn))
	if err != nil {
		t.Fatal(err)
	}
	rep := reply{status: resp.Status, header: resp.Header}
	if limit >= 0 {
		rep.body = make([]byte, limit)
		if _, err := io.ReadFull(resp.Body, rep.body); err != nil {
			t.Fatal(err)
		}
		return rep
	}
	rep.body, err = io.ReadAll(resp.Body)
	rep.failed = err != nil || int64(len(rep.body)) < resp.ContentLength
	return rep
}

// TestCachedAndPlainRelayAgree sends the same requests through a plain
// relay and a caching one — both run the one upstream exchange — and
// asserts the client cannot tell them apart (x-cache aside) and that the
// record files the outcome under the same class: ok, an upstream 404, an
// upstream that closes mid-body, and a client that hangs up mid-body
// (canceled, never an upstream failure; the teeing fill drains on).
func TestCachedAndPlainRelayAgree(t *testing.T) {
	cases := []struct {
		name   string
		faults []shaper.Fault
		size   int64
		object string
		rg     string
		limit  int64
		class  string
		cached bool // the caching relay holds the object afterwards
	}{
		{name: "ok ranged", size: 4 << 20, object: "obj.bin", rg: "bytes=1000-20999", limit: -1, class: "ok"},
		{name: "ok whole", size: 4 << 20, object: "obj.bin", limit: -1, class: "ok", cached: true},
		{name: "404", size: 4 << 20, object: "missing.bin", limit: -1, class: "status"},
		{name: "short upstream body", size: 4 << 20, faults: []shaper.Fault{{At: 8192, Do: shaper.Close}}, object: "obj.bin", limit: -1, class: "failed"},
		// The throttle paces the upstream in 4 KiB steps, so the client is
		// gone long before the body could have fit into socket buffers.
		{name: "client hang-up", size: 512 << 10, faults: []shaper.Fault{{Do: shaper.Throttle, Rate: 8e6}}, object: "obj.bin", limit: 16 << 10, class: "canceled", cached: true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var replies [2]reply
			for i, opts := range [][]Option{nil, {WithCache(16 << 20)}} {
				rec := flight.NewRecorder(flight.Config{Ring: 4})
				r, relayAddr, originAddr, _, mon := chaosRelay(t, tc.size, tc.faults, append(opts, WithFlight(rec))...)
				replies[i] = exchange(t, relayAddr, originAddr, tc.object, tc.rg, tc.limit)
				r.WaitIdle()

				evs := rec.Events(flight.Filter{})
				if len(evs) != 1 || evs[0].Class != tc.class || evs[0].Path != originAddr {
					t.Fatalf("relay %d recorded %+v, want one %q event on %s", i, evs, tc.class, originAddr)
				}
				ph, _ := mon.PathHealth(originAddr)
				wantOk, wantFailed := int64(0), int64(0)
				switch tc.class {
				case "ok":
					wantOk = 1
				case "canceled": // not a sample of the upstream path
				default:
					wantFailed = 1
				}
				if ph.Ok != wantOk || ph.Failed != wantFailed {
					t.Fatalf("relay %d folded ok=%d failed=%d for a %q outcome", i, ph.Ok, ph.Failed, tc.class)
				}
				if c := r.Cache(); c != nil {
					if got := c.Contains(cacheKey(originAddr, "/"+tc.object), 0, tc.size); got != tc.cached {
						t.Fatalf("caching relay holds the object: %v, want %v", got, tc.cached)
					}
				}
			}
			plain, cached := replies[0], replies[1]
			if how := cached.header["x-cache"]; (how == "miss") != (tc.class != "status") {
				t.Fatalf("caching relay answered x-cache=%q to a %q outcome", how, tc.class)
			}
			delete(cached.header, "x-cache")
			if !reflect.DeepEqual(plain, cached) {
				t.Fatalf("client-visible difference:\nplain  %d %v %d bytes failed=%v\ncached %d %v %d bytes failed=%v",
					plain.status, plain.header, len(plain.body), plain.failed,
					cached.status, cached.header, len(cached.body), cached.failed)
			}
			if tc.class == "failed" && !plain.failed {
				t.Fatal("truncated upstream body reached the client as a complete response")
			}
		})
	}
}
