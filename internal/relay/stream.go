package relay

import (
	"bytes"
	"io"
	"sync/atomic"
)

// streamChunk is the generation/verification granularity of the streaming
// helpers: large enough to amortize the per-chunk call, small enough that
// scratch buffers stay cache-friendly.
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
	var written int64
	for written < n {
		chunk := int64(len(buf))
		if rest := n - written; rest < chunk {
			chunk = rest
		}
		FillRange(name, off+written, buf[:chunk])
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

// Verifier checks a byte stream against the canonical synthetic content
// of an object, incrementally: each Verify call checks the next slice of
// the stream and advances the position, so a transfer can be validated
// chunk by chunk as bytes arrive instead of materializing the whole body
// for one VerifyRange call. The scratch buffer is reused across calls, so
// a Verifier performs no per-chunk allocation. Not safe for concurrent
// use; one Verifier per transfer.
type Verifier struct {
	name string
	off  int64
	want []byte
}

// NewVerifier returns a verifier positioned at offset off of object name.
func NewVerifier(name string, off int64) *Verifier {
	return &Verifier{name: name, off: off}
}

// Offset returns the object position the next Verify call checks against
// — after a mismatch, the start of the chunk that failed.
func (v *Verifier) Offset() int64 { return v.off }

// Verify checks p against the canonical content at the current position
// and advances past it. It reports false on the first corrupt chunk,
// leaving Offset at that chunk's start.
func (v *Verifier) Verify(p []byte) bool {
	if v.want == nil {
		v.want = make([]byte, streamChunk)
	}
	for len(p) > 0 {
		n := len(p)
		if n > streamChunk {
			n = streamChunk
		}
		want := v.want[:n]
		FillRange(v.name, v.off, want)
		if !bytes.Equal(p[:n], want) {
			return false
		}
		v.off += int64(n)
		p = p[n:]
	}
	return true
}
