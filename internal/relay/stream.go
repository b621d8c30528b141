package relay

import (
	"io"
	"sync/atomic"
)

// streamChunk is the generation granularity of WriteRange when the
// caller brings no buffer: large enough to amortize the per-chunk write,
// small enough that the scratch buffer stays cache-friendly.
const streamChunk = 32 << 10

// WriteRange streams the canonical content of object name at
// [off, off+n) into w through buf, returning the bytes written (including
// the partial count when w errors mid-stream). A scratch buffer is
// allocated when buf is empty, so callers on a hot path should pass their
// own. Generation, not allocation, scales with n: this is how both the
// origin server and tests produce arbitrarily large ranges in constant
// memory.
func WriteRange(w io.Writer, name string, off, n int64, buf []byte) (int64, error) {
	return writeRange(w, name, off, n, buf, nil)
}

// writeRange is WriteRange that also keeps a served-bytes counter: each
// chunk is counted before the write that releases it, so a reader that
// already holds the last byte never sees a stale count, and a short
// write takes the undelivered part back.
func writeRange(w io.Writer, name string, off, n int64, buf []byte, served *atomic.Int64) (int64, error) {
	if len(buf) == 0 {
		buf = make([]byte, streamChunk)
	}
	seed := contentSeed(name)
	var written int64
	for written < n {
		chunk := int64(len(buf))
		if rest := n - written; rest < chunk {
			chunk = rest
		}
		fillContent(seed, uint64(off+written), buf[:chunk])
		if served != nil {
			served.Add(chunk)
		}
		m, err := w.Write(buf[:chunk])
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
