//go:build linux

package relay

import (
	"io"
	"net"
	"os"
	"syscall"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs/flight"
)

// spliceNonblock is SPLICE_F_NONBLOCK: a splice that would wait on the
// pipe fails with EAGAIN instead. The sockets are non-blocking already;
// their waits go through the netpoller.
const spliceNonblock = 0x2

// spliceStream moves the rest of resp's body from src to dst with
// splice(2), through a pipe of its own, so that no body byte is copied
// into the relay's memory and out again. dst must be a syscall.Conn (a
// *net.TCPConn outside tests). ok=false means it did nothing — no pipe
// could be made — and the caller copies instead.
//
// It keeps copyStream's rules. buf[:head] holds a response head still
// to be sent: it goes out in one write with the buffered bytes the leg's
// reader holds. Then each drain moves at most streamChunk bytes into the
// pipe and the pump sends them all on before the next drain, so the
// client reads each chunk while it is still in the cache, as after a
// copy. A drain error is the upstream's (rerr) and a pump error the
// client's (werr). A drain that finds the upstream closed returns no
// error: got falls short of the declared length, and forward folds the
// truncation against the upstream as it does the copy loop's. Every
// drained chunk is counted, into BytesRelayed and rec, before the pump
// that releases it, and a short pump takes the unsent part back. With
// UpstreamStall set, every drain re-arms the upstream's read deadline,
// which the netpoller's wait for a readable socket honours as a read
// does.
func (r *Relay) spliceStream(dst net.Conn, src *net.TCPConn, resp *httpx.Response, rec *flight.Record, buf []byte, head, buffered int) (got int64, werr, rerr error, ok bool) {
	sc, isSyscallConn := dst.(syscall.Conn)
	if !isSyscallConn {
		return 0, nil, nil, false
	}
	wr, err := sc.SyscallConn()
	if err != nil {
		return 0, nil, nil, false
	}
	rd, err := src.SyscallConn()
	if err != nil {
		return 0, nil, nil, false
	}
	var p [2]int
	if syscall.Pipe2(p[:], syscall.O_CLOEXEC|syscall.O_NONBLOCK) != nil {
		return 0, nil, nil, false // out of descriptors: the copy needs none
	}
	pr, pw := p[0], p[1]
	defer syscall.Close(pr)
	defer syscall.Close(pw)
	// A pipe holds 64 KiB unless told otherwise. Past the per-user pipe
	// limit the kernel refuses more, and drains are then that much shorter.
	syscall.Syscall(syscall.SYS_FCNTL, uintptr(pw), syscall.F_SETPIPE_SZ, streamChunk)

	if n := head + buffered; n > 0 {
		// The reader holds the buffered bytes: this read makes no syscall.
		nr, _ := io.ReadFull(resp.Body, buf[head:n])
		got = int64(nr)
		r.BytesRelayed.Add(got)
		rec.AddBytes(got)
		var nw int
		nw, werr = dst.Write(buf[:head+nr])
		if nw = max(nw-head, 0); nw < nr {
			r.BytesRelayed.Add(int64(nw - nr))
			rec.AddBytes(int64(nw - nr))
		}
		if werr != nil {
			return got, werr, nil, true
		}
	}

	// One state for both callbacks: each closure that captures it is an
	// allocation, and so would be each variable captured apart.
	var s struct {
		want, moved int
		err         error
	}
	drain := func(fd uintptr) bool {
		s.moved, s.err = splice(int(fd), pw, s.want)
		return s.err != syscall.EAGAIN
	}
	pump := func(fd uintptr) bool {
		s.moved, s.err = splice(pr, int(fd), s.want)
		return s.err != syscall.EAGAIN
	}
	for got < resp.ContentLength {
		if r.UpstreamStall > 0 {
			src.SetReadDeadline(time.Now().Add(r.UpstreamStall))
		}
		s.want = int(min(resp.ContentLength-got, streamChunk))
		if err := rd.Read(drain); err != nil {
			return got, nil, err, true
		}
		if s.err != nil {
			return got, nil, spliceError(src, s.err), true
		}
		if s.moved == 0 {
			return got, nil, nil, true // upstream closed mid-body
		}
		got += int64(s.moved)
		r.BytesRelayed.Add(int64(s.moved))
		rec.AddBytes(int64(s.moved))
		for s.want = s.moved; s.want > 0; s.want -= s.moved {
			if werr = wr.Write(pump); werr == nil && s.err != nil {
				werr = spliceError(dst, s.err)
			}
			if werr == nil && s.moved == 0 {
				werr = io.ErrShortWrite // the pipe ran dry under us; it cannot
			}
			if werr != nil {
				r.BytesRelayed.Add(int64(-s.want))
				rec.AddBytes(int64(-s.want))
				return got, werr, nil, true
			}
		}
	}
	return got, nil, nil, true
}

// splice moves up to n bytes from rfd to wfd without waiting on the
// pipe; a signal that interrupts it restarts it.
func splice(rfd, wfd, n int) (int, error) {
	for {
		m, err := syscall.Splice(rfd, nil, wfd, nil, n, spliceNonblock)
		if err != syscall.EINTR {
			return max(int(m), 0), err
		}
	}
}

// spliceError names the connection a splice failed on, as a failed
// read or write on it would be named.
func spliceError(c net.Conn, err error) error {
	return &net.OpError{Op: "splice", Net: "tcp", Source: c.LocalAddr(), Addr: c.RemoteAddr(), Err: os.NewSyscallError("splice", err)}
}
