package faultproxy

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/shaper"
)

// Proxy is the fault-injecting splice. One Proxy fronts one upstream
// address; every accepted connection is numbered in accept order (the
// schedule's conn= index), spliced to the upstream, and run through the
// connection's matching rules. The schedule and the partition switch are
// swappable at runtime, so a chaos scenario can change the weather while
// connections are live.
type Proxy struct {
	target string
	l      net.Listener

	sched       atomic.Pointer[Schedule]
	partitioned atomic.Bool
	seq         atomic.Int64

	mu      sync.Mutex
	splices map[net.Conn]net.Conn // live splices, client → upstream
	closed  bool
}

// Listen starts a proxy on addr (use "127.0.0.1:0" for an ephemeral
// port) forwarding to target.
func Listen(addr, target string) (*Proxy, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &Proxy{target: target, l: l, splices: make(map[net.Conn]net.Conn)}
	go p.serve()
	return p, nil
}

// Addr returns the proxy's listen address — what clients dial in place
// of the upstream.
func (p *Proxy) Addr() string { return p.l.Addr().String() }

// Accepted returns how many connections the proxy has accepted; the
// next connection gets index Accepted()+1.
func (p *Proxy) Accepted() int64 { return p.seq.Load() }

// SetSchedule installs a fault schedule; nil clears it. Connections
// already in flight keep the rule set they started with.
func (p *Proxy) SetSchedule(s *Schedule) { p.sched.Store(s) }

// SetPartitioned flips the partition switch: while set, new connections
// are reset at accept and every live spliced connection is severed. The
// listener stays open — a partitioned path looks like dials that die,
// not an address that vanished — and clearing the switch heals the path
// for subsequent connections.
func (p *Proxy) SetPartitioned(v bool) {
	p.partitioned.Store(v)
	if v {
		p.Sever()
	}
}

// Sever resets every live connection (both sides of every splice)
// without touching the listener: the between-requests kill that turns
// pooled keep-alive connections stale. The client side of a splice goes
// first: once its upstream is gone the handler returns and closes the
// client, and that FIN must not beat the RST — a severed body without a
// length would read as a clean end.
func (p *Proxy) Sever() {
	p.mu.Lock()
	conns := make([]net.Conn, 0, 2*len(p.splices))
	for client, upstream := range p.splices {
		conns = append(conns, client, upstream)
	}
	p.mu.Unlock()
	for _, c := range conns {
		rst(c)
	}
}

// Flap toggles the partition switch on a cycle — down for down, then up
// for up, repeating — until the returned stop function is called. This
// is the flapping-relay fault class: the path heals and fails faster
// than a damped health monitor should chase.
func (p *Proxy) Flap(up, down time.Duration) (stop func()) {
	done := make(chan struct{})
	go func() {
		for {
			p.SetPartitioned(true)
			select {
			case <-done:
				return
			case <-time.After(down):
			}
			p.SetPartitioned(false)
			select {
			case <-done:
				return
			case <-time.After(up):
			}
		}
	}()
	var once sync.Once
	return func() { once.Do(func() { close(done); p.SetPartitioned(false) }) }
}

// Close shuts the listener and severs all live connections.
func (p *Proxy) Close() error {
	p.mu.Lock()
	p.closed = true
	p.mu.Unlock()
	err := p.l.Close()
	p.Sever()
	return err
}

func (p *Proxy) serve() {
	for {
		client, err := p.l.Accept()
		if err != nil {
			return
		}
		idx := p.seq.Add(1)
		go p.handle(client, idx)
	}
}

// track registers a splice for Sever/Close; it reports false (and
// resets the client) if the proxy is already closed.
func (p *Proxy) track(client, upstream net.Conn) bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		rst(client)
		return false
	}
	p.splices[client] = upstream
	return true
}

func (p *Proxy) untrack(client net.Conn) {
	p.mu.Lock()
	delete(p.splices, client)
	p.mu.Unlock()
}

func (p *Proxy) handle(client net.Conn, idx int64) {
	defer client.Close()
	rules := p.sched.Load().forConn(idx)

	// Dial phase: partition and dial-anchored rules run before any
	// upstream contact.
	if p.partitioned.Load() {
		rst(client)
		return
	}
	for _, r := range rules {
		if r.Phase != PhaseDial {
			continue
		}
		switch r.Action {
		case ActionRefuse, ActionClose:
			return
		case ActionReset:
			rst(client)
			return
		case ActionStall:
			if !sleepOrClosed(client, r.Dur) {
				return
			}
		case ActionBlackhole:
			// Never dial; hold the accepted conn open until the client
			// gives up.
			waitClosed(client)
			return
		}
	}

	upstream, err := net.Dial("tcp", p.target)
	if err != nil {
		rst(client)
		return
	}
	defer upstream.Close()
	if !p.track(client, upstream) {
		return
	}
	defer p.untrack(client)

	// Client→upstream is a plain splice; the scripted faults live on the
	// response stream, where the testbed's interesting bytes flow.
	go func() {
		io.Copy(upstream, client)
		// Half-close so a request-streaming upstream sees EOF, but leave
		// the response stream alone.
		if tc, ok := upstream.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
	}()

	p.pumpDown(client, upstream, rules)
}

// pumpDown forwards the upstream→client stream, applying headers- and
// body-phase rules at their exact byte offsets: a chunk straddling a
// trigger offset is split so corruption and kills land on the scripted
// byte, not the nearest read boundary.
func (p *Proxy) pumpDown(client, upstream net.Conn, rules []Rule) {
	fired := make([]bool, len(rules))
	var (
		off        int64
		bucket     *shaper.Bucket
		corruptRem int64
		blackhole  bool
	)
	buf := make([]byte, 16<<10)
	for {
		nr, rerr := upstream.Read(buf)
		chunk := buf[:nr]
		for len(chunk) > 0 {
			// Fire every rule triggering at the current offset; find the
			// next pending trigger inside this chunk.
			next := int64(len(chunk))
			for i, r := range rules {
				if fired[i] {
					continue
				}
				var at int64
				switch r.Phase {
				case PhaseHeaders:
					at = 0
				case PhaseBody:
					at = r.After
				default:
					fired[i] = true
					continue
				}
				rel := at - off
				if rel > 0 {
					if rel < next {
						next = rel
					}
					continue
				}
				fired[i] = true
				switch r.Action {
				case ActionReset:
					rst(client)
					return
				case ActionClose:
					return
				case ActionStall:
					if !sleepOrClosed(client, r.Dur) {
						return
					}
				case ActionThrottle:
					// Small burst so even one buffer can't bypass the cap.
					bucket = shaper.NewBucket(r.Rate, 4<<10)
				case ActionCorrupt:
					corruptRem = r.Len
				case ActionBlackhole:
					blackhole = true
				}
			}

			seg := chunk
			if int64(len(seg)) > next {
				seg = seg[:next]
			}
			if corruptRem > 0 {
				n := int64(len(seg))
				if n > corruptRem {
					n = corruptRem
				}
				for i := int64(0); i < n; i++ {
					seg[i] ^= 0xff
				}
				corruptRem -= n
			}
			if blackhole {
				// Keep consuming upstream so nothing resets; deliver
				// nothing.
				off += int64(len(seg))
				chunk = chunk[len(seg):]
				continue
			}
			if bucket != nil {
				bucket.Take(len(seg))
			}
			nw, werr := client.Write(seg)
			off += int64(nw)
			if werr != nil {
				return
			}
			chunk = chunk[len(seg):]
		}
		if rerr != nil {
			if blackhole {
				// The upstream is done, but a blackholed connection must
				// not close — the whole point is that the client sees
				// silence, not an EOF, until its own deadline fires.
				waitClosed(client)
			}
			return
		}
	}
}

// rst severs a connection with an RST rather than a FIN, so the peer
// sees a hard transport failure (connection reset) instead of a clean
// close.
func rst(c net.Conn) {
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetLinger(0)
	}
	c.Close()
}

// sleepOrClosed pauses for d (forever when d == 0), returning false if
// the watched connection died first.
func sleepOrClosed(c net.Conn, d time.Duration) bool {
	if d == 0 {
		waitClosed(c)
		return false
	}
	time.Sleep(d)
	return true
}

// waitClosed blocks until the peer closes or resets the connection, by
// reading (and discarding) whatever arrives.
func waitClosed(c net.Conn) {
	io.Copy(io.Discard, c)
}
