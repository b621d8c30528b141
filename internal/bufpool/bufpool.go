// Package bufpool recycles the bufio.Readers that sit on connections.
// Origin and relay put one on every connection they accept, the relay on
// every upstream leg, the client on every connection it dials; a race of
// cold probes opens a dozen such connections per operation, each of which
// lives for one or two requests, so the 4 KB buffers are worth keeping.
package bufpool

import (
	"bufio"
	"io"
	"sync"
)

var readers = sync.Pool{New: func() any { return bufio.NewReader(nil) }}

// Reader returns a buffered reader on r.
func Reader(r io.Reader) *bufio.Reader {
	br := readers.Get().(*bufio.Reader)
	br.Reset(r)
	return br
}

// Put takes back a reader from Reader. Its owner gives it up when the
// connection under it closes, and must be the only goroutine that could
// still read from it: whatever it had buffered is gone.
func Put(br *bufio.Reader) {
	br.Reset(nil)
	readers.Put(br)
}
