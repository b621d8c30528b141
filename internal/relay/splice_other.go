//go:build !linux

package relay

import (
	"net"

	"repro/internal/httpx"
	"repro/internal/obs/flight"
)

// spliceStream splices on Linux only: here it does nothing, and every
// body goes through copyStream.
func (r *Relay) spliceStream(dst net.Conn, src *net.TCPConn, resp *httpx.Response, rec *flight.Record, buf []byte, head, buffered int) (got int64, werr, rerr error, ok bool) {
	return 0, nil, nil, false
}
