package shaper

import (
	"cmp"
	"errors"
	"io"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"
)

// Action is what a Fault does when its connection's stream reaches it.
type Action uint8

// Actions.
const (
	// Reset severs the connection with an RST (SO_LINGER 0): the peer
	// reads "connection reset" and loses what it had not yet read.
	Reset Action = iota + 1
	// Close ends the connection with a clean FIN: a truncated stream
	// that reads as an ordinary end.
	Close
	// Refuse resets the connection at accept, before the server sees it.
	Refuse
	// Stall holds the stream for Dur, or until the connection is closed.
	Stall
	// Throttle caps the rest of the stream at Rate bytes per second.
	Throttle
	// Corrupt flips (XOR 0xff) the next Len bytes on their way out.
	Corrupt
	// Blackhole swallows the rest of the stream and holds back the FIN
	// until the peer hangs up.
	Blackhole
)

// Fault is one event on a Listener's connections: when connection
// Conn's outbound stream reaches byte At, do Do. It fires once per
// connection; faults at the same byte fire in the order given.
type Fault struct {
	// Conn is the 1-based accept index the fault applies to; 0 means
	// every connection.
	Conn int
	// At is an offset in the server's outbound stream, response heads
	// included: the fault fires before byte At is written. A negative At
	// fires at accept, where Reset and Close drop the connection before
	// the server sees it; the other actions then start with the stream.
	At   int64
	Do   Action
	Dur  time.Duration // Stall
	Rate float64       // Throttle, bytes per second
	Len  int64         // Corrupt
}

// faultBurst is small so that not even one probe-sized write slips past a cap.
const faultBurst = 4 << 10

var errFault = errors.New("shaper: connection ended by a fault")

// Listener is a TCP listener whose accepted connections are the server
// end of one emulated path: every byte the server writes passes the
// path's profile and its connection's faults. Close takes the whole path
// down, the listener and every connection it accepted.
type Listener struct {
	net.Listener
	down     *bucket // the download rate, shared by every connection
	accepted atomic.Int64

	mu      sync.Mutex
	latency time.Duration
	faults  []Fault
	conns   map[*served]struct{}
	closed  bool
}

// Listen listens on addr (e.g. "127.0.0.1:0") with a clean path.
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &Listener{Listener: nl, down: newBucket(0, faultBurst), conns: make(map[*served]struct{})}, nil
}

// SetProfile shapes what the server writes: DownloadBps at once, open
// connections included; Latency from the next accept (UploadBps is a Dialer's).
func (l *Listener) SetProfile(p PathProfile) {
	l.down.set(p.DownloadBps / 8)
	l.mu.Lock()
	l.latency = p.Latency
	l.mu.Unlock()
}

// SetFaults replaces the fault schedule. A connection takes its faults
// when it is accepted, so SetFaults() heals the path for the next
// connection, not for those already open.
func (l *Listener) SetFaults(fs ...Fault) {
	l.mu.Lock()
	l.faults = append([]Fault(nil), fs...)
	l.mu.Unlock()
}

// Accepted returns how many connections the listener has accepted,
// refused ones included; the next one gets index Accepted()+1.
func (l *Listener) Accepted() int { return int(l.accepted.Load()) }

// Accept returns the next connection the faults let through.
func (l *Listener) Accept() (net.Conn, error) {
	for {
		raw, err := l.Listener.Accept()
		if err != nil {
			return nil, err
		}
		if c := l.admit(raw); c != nil {
			return c, nil
		}
	}
}

// admit numbers raw and gives it its faults; it returns nil when one of
// them drops the connection at accept.
func (l *Listener) admit(raw net.Conn) *Conn {
	idx := int(l.accepted.Add(1))
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		rst(raw)
		return nil
	}
	s := &served{raw: raw, l: l, done: make(chan struct{})}
	for _, f := range l.faults {
		if f.Conn != 0 && f.Conn != idx {
			continue
		}
		switch {
		case f.Do == Refuse, f.At < 0 && f.Do == Reset:
			rst(raw)
			return nil
		case f.At < 0 && f.Do == Close:
			raw.Close()
			return nil
		}
		s.faults = append(s.faults, f)
	}
	slices.SortStableFunc(s.faults, func(a, b Fault) int { return cmp.Compare(a.At, b.At) })
	l.conns[s] = struct{}{}
	c := &Conn{Conn: raw, lat: l.latency, srv: s}
	c.readDelayed.Store(true) // the latency is the download direction's
	return c
}

func (l *Listener) forget(s *served) {
	l.mu.Lock()
	delete(l.conns, s)
	l.mu.Unlock()
}

// Sever resets every open connection and leaves the listener up: the
// between-requests kill that turns pooled keep-alive connections stale.
// A partition is Sever followed by SetFaults(Fault{Do: Refuse}).
func (l *Listener) Sever() {
	l.mu.Lock()
	conns := l.conns
	l.conns = make(map[*served]struct{})
	l.mu.Unlock()
	for s := range conns {
		s.sever()
	}
}

// Close closes the listener and severs every connection it accepted.
func (l *Listener) Close() error {
	l.mu.Lock()
	l.closed = true
	l.mu.Unlock()
	err := l.Listener.Close()
	l.Sever()
	return err
}

// served is the server side of a Listener's connection: its faults, and
// how far its outbound stream has got.
type served struct {
	raw       net.Conn
	l         *Listener
	faults    []Fault // not yet fired, ordered by At
	off       int64   // bytes of the outbound stream written so far
	throttle  *bucket
	corrupt   int64 // bytes still to flip
	scratch   []byte
	blackhole atomic.Bool
	done      chan struct{} // closed when the connection is closed or severed
	stopOnce  sync.Once
}

// write sends what of b comes before the next fault through the stream
// faults and the rate limits; it reports how much of b it consumed.
func (s *served) write(b []byte) (int, error) {
	if err := s.fire(); err != nil {
		return 0, err
	}
	// Stop at the next fault's byte and at the corrupt span's end.
	if len(s.faults) > 0 && s.faults[0].At-s.off < int64(len(b)) {
		b = b[:s.faults[0].At-s.off]
	}
	if s.corrupt > 0 && s.corrupt < int64(len(b)) {
		b = b[:s.corrupt]
	}
	if s.blackhole.Load() {
		s.off += int64(len(b))
		return len(b), nil
	}
	if s.corrupt > 0 {
		// Flip a private copy: the caller's buffer may be a cached span.
		s.scratch = append(s.scratch[:0], b...)
		for i := range s.scratch {
			s.scratch[i] ^= 0xff
		}
		s.corrupt -= int64(len(b))
		b = s.scratch
	}
	s.l.down.take(len(b))
	s.throttle.take(len(b))
	n, err := s.raw.Write(b)
	s.off += int64(n)
	return n, err
}

// fire runs, in order, every fault the stream has reached.
func (s *served) fire() error {
	for len(s.faults) > 0 && s.faults[0].At <= s.off {
		f := s.faults[0]
		s.faults = s.faults[1:]
		switch f.Do {
		case Reset:
			s.sever()
			return errFault
		case Close:
			s.close()
			return errFault
		case Stall:
			t := time.NewTimer(f.Dur)
			select {
			case <-t.C:
			case <-s.done:
				t.Stop()
				return errFault
			}
		case Throttle:
			s.throttle = newBucket(f.Rate, faultBurst)
		case Corrupt:
			s.corrupt = f.Len
		case Blackhole:
			s.blackhole.Store(true)
		}
	}
	return nil
}

func (s *served) close() error {
	if !s.stop() {
		return nil
	}
	if s.blackhole.Load() {
		go func() {
			io.Copy(io.Discard, s.raw)
			s.raw.Close()
			s.l.forget(s)
		}()
		return nil
	}
	s.l.forget(s)
	return s.raw.Close()
}

// sever resets the connection: the peer sees a hard failure, not an end.
func (s *served) sever() {
	rst(s.raw)
	s.stop()
	s.l.forget(s)
}

// stop ends a stall on the connection; it reports whether it was first.
func (s *served) stop() (first bool) {
	s.stopOnce.Do(func() {
		close(s.done)
		first = true
	})
	return first
}

func rst(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}
