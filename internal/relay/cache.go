package relay

import (
	"context"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"

	"repro/internal/httpx"
	"repro/internal/objcache"
	"repro/internal/obs"
	"repro/internal/obs/flight"
)

// This file is the relay's cached forwarding path. With a cache
// attached (relay.New + WithCache), GET requests are tried against the
// cached spans first; a miss opens a singleflight fill and runs the
// relay's one upstream exchange (forward, in relay.go) with that fill
// attached, streaming the origin's response to the client while teeing
// the bytes into the cache, and every concurrent miss for the same
// object/range waits on that one fill instead of hitting the origin
// again. Requests the cache cannot express (non-explicit range forms,
// ranges larger than the whole cache, HEAD) fall back to the plain
// forwarding path untouched.

// errUncacheable marks a fill whose body could not be retained (no
// declared length, or larger than the cache); waiters fall back to
// their own upstream fetch.
var errUncacheable = errors.New("relay: response not cacheable")

// cacheRange maps a request's Range header to the cache's coordinates.
// want == objcache.SizeUnknown means "the whole object, extent not yet
// known". ok=false means the form is not cacheable (suffix/open-ended
// ranges) and the request must take the plain path.
func (r *Relay) cacheRange(key, rg string) (off, want int64, whole, ok bool) {
	if rg == "" {
		if size, known := r.cache.Size(key); known {
			return 0, size, true, true
		}
		return 0, objcache.SizeUnknown, true, true
	}
	dash := strings.IndexByte(rg, '-')
	if dash <= len("bytes=") || dash == len(rg)-1 || strings.ContainsAny(rg, ", ") {
		return 0, 0, false, false // suffix, open-ended or a list: let the origin decide
	}
	// Against a known size the window is clamped as the origin would clamp
	// it, and an unsatisfiable one is left to the origin's authoritative 416.
	size, known := r.cache.Size(key)
	if !known {
		size = math.MaxInt64
	}
	off, want, err := httpx.ParseRange(rg, size)
	return off, want, false, err == nil
}

// serveCached is the cache-first request path. handled=false means the
// cache could not take the request (unsupported range form, oversized
// range, or a failed or poisoned shared fill) and the caller must
// forward plainly.
// Hits and shared fills never touch the upstream path, so they leave
// rec without a fold key: they say nothing about its health.
func (r *Relay) serveCached(conn net.Conn, req *httpx.Request, rec *flight.Record, up *leg, upstreamAddr, path string) (handled, again bool) {
	key := cacheKey(upstreamAddr, path)
	off, want, whole, ok := r.cacheRange(key, req.Header["range"])
	if !ok {
		return false, false
	}
	if want != objcache.SizeUnknown {
		if want > r.cache.Capacity() {
			return false, false
		}
		// The span stays pinned, so its buffer cannot be recycled for
		// another fill, until the bytes are written.
		if r.cache.Read(key, off, want, func(data []byte) {
			again = r.writeCached(conn, rec, key, data, off, whole, "hit")
		}) {
			return true, again
		}
	}
	fl, leader := r.cache.StartFlight(key, off, want)
	if leader {
		// The miss leader is the plain exchange with the fill attached.
		return true, r.forward(conn, req, rec, up, upstreamAddr, path, &fill{fl: fl, key: key, off: off})
	}
	rec.Phase("shared-wait")
	err := fl.Wait(context.Background(), func(data []byte) {
		if whole && want == objcache.SizeUnknown {
			want = int64(len(data))
		}
		if int64(len(data)) > want {
			data = data[:want]
		}
		again = r.writeCached(conn, rec, key, data, off, whole, "shared")
	})
	if err != nil {
		// The leader's fetch failed, was uncacheable, or delivered bytes
		// the serve-time verifier refused (Wait checks a shared fill as
		// Read checks a hit); fetch for ourselves over the plain path.
		return false, false
	}
	return true, again
}

// writeCached serves data (the bytes of [off, off+len)) straight from
// memory, with the response shape the origin would have used: 200 for
// whole-object requests, 206 with Content-Range for ranged ones. The
// x-cache header says how the bytes were obtained.
func (r *Relay) writeCached(conn net.Conn, rec *flight.Record, key string, data []byte, off int64, whole bool, how string) (again bool) {
	rec.SetCache(how)
	rec.Phase("write")
	header := map[string]string{
		"content-length": strconv.Itoa(len(data)),
		"accept-ranges":  "bytes",
		"x-cache":        how,
	}
	status, reason := 200, "OK"
	if !whole {
		status, reason = 206, "Partial Content"
		if size, known := r.cache.Size(key); known {
			header["content-range"] = httpx.ContentRange(off, int64(len(data)), size)
		} else {
			header["content-range"] = fmt.Sprintf("bytes %d-%d/*", off, off+int64(len(data))-1)
		}
	}
	err := httpx.WriteResponseHead(conn, status, reason, header)
	if err == nil {
		// Counted before the write that releases the bytes; a short write
		// takes the rest back.
		n := int64(len(data))
		r.BytesRelayed.Add(n)
		var m int
		m, err = conn.Write(data)
		r.BytesRelayed.Add(int64(m) - n)
		rec.StoreBytes(int64(m))
	}
	if err != nil {
		rec.Outcome(obs.ClassCanceled, "client: "+err.Error())
		return false
	}
	return true
}

// parseContentRange extracts (first-byte offset, total size) from a
// "bytes a-b/size" header; (-1, -1) when absent or malformed, and
// size -1 for an unknown "/*" total.
func parseContentRange(h string) (off, size int64) {
	rest, ok := strings.CutPrefix(h, "bytes ")
	if !ok {
		return -1, -1
	}
	dash := strings.IndexByte(rest, '-')
	slash := strings.IndexByte(rest, '/')
	if dash <= 0 || slash < dash {
		return -1, -1
	}
	off, errA := strconv.ParseInt(rest[:dash], 10, 64)
	if errA != nil || off < 0 {
		return -1, -1
	}
	if rest[slash+1:] == "*" {
		return off, -1
	}
	size, errS := strconv.ParseInt(rest[slash+1:], 10, 64)
	if errS != nil || size < 0 {
		return off, -1
	}
	return off, size
}

// learn records the object's geometry from a 200/206 — a 206's
// Content-Range carries the actual offset and the full size, a 200's
// Content-Length is the full size — and, when the body can be kept,
// opens f's tee buffer, a recycled one if the cache has one that fits.
// A body without a declared length, one bigger than the whole cache, or
// a 206 whose actual offset differs from the one the flight was opened
// at streams through unteed; the flight then reports uncacheable and
// waiters fetch for themselves.
func (r *Relay) learn(f *fill, resp *httpx.Response) {
	actualOff := int64(0)
	if resp.Status == 206 {
		croff, total := parseContentRange(resp.Header["content-range"])
		actualOff = f.off
		if croff >= 0 {
			actualOff = croff
		}
		if total >= 0 {
			r.cache.SetSize(f.key, total)
		}
	} else if resp.ContentLength >= 0 {
		r.cache.SetSize(f.key, resp.ContentLength)
	}
	if resp.ContentLength > 0 && resp.ContentLength <= r.cache.Capacity() && actualOff == f.off {
		f.buf = r.cache.Buffer(resp.ContentLength)
	}
}
