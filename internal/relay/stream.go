package relay

import (
	"io"
	"sync"
	"sync/atomic"
)

// streamChunk is the size of the chunks every response body moves in
// on the server side: the origin's generated content, the relay's
// forward pump and the cached-miss tee. With the content kernels in
// vector code, the syscalls per chunk are most of what a served byte
// costs. At 128 KiB a bulk_select operation (an 8 MiB selected fetch;
// client, relays and origin in one process) made 228 read and 142
// write syscalls, against 423 and 539 at 32 KiB; since the origin
// bounds its send buffer (originSendBuffer) the relay reads smaller
// pieces, and it makes 273 and 174, in less time. 256 KiB measured the
// same as 128 KiB. 1 MiB was slower, and raised the benchmark's peak
// resident set by 17 %.
//
// It also caps each drain of a spliced body (spliceStream) and sizes
// its pipe: the client then reads each chunk soon after the relay took
// it off the upstream socket, while it is still in the cache, as after
// a copy. A body of no more than one chunk past what the leg's reader
// holds is copied, not spliced.
const streamChunk = 128 << 10

// headRoom is what a relayBufs buffer holds beyond streamChunk: room
// for a response head in front of a whole chunk, so that a response of
// up to streamChunk bytes goes out in one write.
const headRoom = 1 << 10

// relayBufs recycles the buffers response bodies move through. It holds
// pointers: a slice put in an interface is boxed, an allocation per Put.
var relayBufs = sync.Pool{
	New: func() any { b := make([]byte, streamChunk+headRoom); return &b },
}

// WriteRange streams the canonical content of object name at
// [off, off+n) into w through buf, returning the bytes written (including
// the partial count when w errors mid-stream). A scratch buffer is
// allocated when buf is empty, so callers on a hot path should pass their
// own. Generation, not allocation, scales with n: this is how both the
// origin server and tests produce arbitrarily large ranges in constant
// memory.
func WriteRange(w io.Writer, name string, off, n int64, buf []byte) (int64, error) {
	return writeRange(w, name, off, n, buf, 0, nil)
}

// writeRange is WriteRange that sends buf[:head] — a response head the
// caller rendered there — in the same write as the first chunk, and
// keeps a served-bytes counter: each chunk is counted before the write
// that releases it, so a reader that already holds the last byte never
// sees a stale count, and a short write takes the undelivered part
// back. The count it returns, like the counter, is of content bytes.
func writeRange(w io.Writer, name string, off, n int64, buf []byte, head int, served *atomic.Int64) (int64, error) {
	if len(buf) == 0 {
		buf = make([]byte, streamChunk)
	}
	seed := contentSeed(name)
	var written int64
	for written < n {
		chunk := min(int64(len(buf)-head), n-written)
		fillContent(seed, uint64(off+written), buf[head:head+int(chunk)])
		if served != nil {
			served.Add(chunk)
		}
		m, err := w.Write(buf[:head+int(chunk)])
		m, head = max(m-head, 0), 0
		if served != nil && int64(m) < chunk {
			served.Add(int64(m) - chunk)
		}
		written += int64(m)
		if err != nil {
			return written, err
		}
	}
	return written, nil
}
