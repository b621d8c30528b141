// Package shaper stands in for a wide-area path on loopback. A Dialer
// shapes a client's connections: a token-bucket rate and a one-way
// latency per direction, so paths differ in speed. A Listener is the
// server end of a path: what its accepted connections write passes the
// path's profile and the faults scheduled for them, each keyed by the
// connection's accept index and a byte offset in its outbound stream,
// never by the wall clock. The code under test reads real RSTs, FINs
// and expired deadlines, with no proxy hop in between.
package shaper

import (
	"net"
	"sync"
	"sync/atomic"
	"time"
)

// bucket is a token-bucket rate limiter over bytes. It is safe for
// concurrent use, and its rate may change while takers draw on it.
type bucket struct {
	mu     sync.Mutex
	rate   float64 // tokens (bytes) per second; <= 0 is unlimited
	burst  float64
	tokens float64
	last   time.Time
	now    func() time.Time
	sleep  func(time.Duration)
}

// newBucket creates a bucket that refills at rate bytes/sec with the
// given burst size. A non-positive rate means unlimited.
func newBucket(rate float64, burst int) *bucket {
	b := &bucket{rate: rate, burst: float64(burst), tokens: float64(burst), now: time.Now, sleep: time.Sleep}
	b.last = b.now()
	return b
}

// set changes the refill rate; a taker already waiting sees it on its
// next pass.
func (b *bucket) set(rate float64) {
	b.mu.Lock()
	b.rate = rate
	b.mu.Unlock()
}

// take consumes n tokens, sleeping until the bucket can supply them.
func (b *bucket) take(n int) {
	if b == nil {
		return
	}
	for n > 0 {
		b.mu.Lock()
		if b.rate <= 0 {
			b.mu.Unlock()
			return
		}
		now := b.now()
		b.tokens += now.Sub(b.last).Seconds() * b.rate
		b.last = now
		if b.tokens > b.burst {
			b.tokens = b.burst
		}
		grab := float64(n)
		if grab > b.tokens {
			grab = b.tokens
		}
		if grab > 0 {
			b.tokens -= grab
			n -= int(grab)
		}
		var wait time.Duration
		if n > 0 {
			need := float64(n)
			if need > b.burst {
				need = b.burst
			}
			wait = time.Duration((need - b.tokens) / b.rate * float64(time.Second))
		}
		b.mu.Unlock()
		if wait > 0 {
			b.sleep(wait)
		}
	}
}

// maxChunk bounds one shaped read or write, so slow rates stay smooth.
const maxChunk = 32 << 10

// Conn is one shaped connection. A Dialer's Conn shapes both directions
// from the client's side, delaying the first byte each way by the
// profile's latency. A Listener's Conn shapes what the server writes and
// runs the faults scheduled for it there.
type Conn struct {
	net.Conn
	rb, wb                    *bucket
	lat                       time.Duration
	readDelayed, writeDelayed atomic.Bool
	srv                       *served // a Listener's only; a pointer keeps a Dialer's Conn small
}

// Read applies latency-then-rate shaping to inbound bytes.
func (c *Conn) Read(p []byte) (int, error) {
	if !c.readDelayed.Swap(true) {
		time.Sleep(c.lat)
	}
	if len(p) > maxChunk {
		p = p[:maxChunk]
	}
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.rb.take(n)
	}
	return n, err
}

// Write applies latency-then-rate shaping to outbound bytes and, on a
// Listener's connection, fires every fault the stream reaches.
func (c *Conn) Write(p []byte) (int, error) {
	if !c.writeDelayed.Swap(true) {
		time.Sleep(c.lat)
	}
	written := 0
	for written < len(p) {
		chunk := p[written:]
		if len(chunk) > maxChunk {
			chunk = chunk[:maxChunk]
		}
		var n int
		var err error
		if c.srv != nil {
			n, err = c.srv.write(chunk)
		} else {
			c.wb.take(len(chunk))
			n, err = c.Conn.Write(chunk)
		}
		written += n
		if err != nil {
			return written, err
		}
	}
	return written, nil
}

// Close closes the connection. A blackholed Listener connection keeps
// its FIN back until the peer hangs up.
func (c *Conn) Close() error {
	if c.srv != nil {
		return c.srv.close()
	}
	return c.Conn.Close()
}

// PathProfile describes the emulated path for one dial target. Each
// rate is a token bucket that starts full with a 64 KiB burst, so the
// first 64 KiB of a dialed connection pass unshaped: a probe of that
// size or less is not held to the rate at all.
type PathProfile struct {
	DownloadBps float64 // download direction rate, bits/sec (0 = unlimited)
	UploadBps   float64 // upload direction rate, bits/sec (0 = unlimited)
	Latency     time.Duration
}

// Dialer dials TCP and shapes each connection according to the profile
// registered for its target address. Unregistered targets pass through
// unshaped.
type Dialer struct {
	mu       sync.Mutex
	profiles map[string]PathProfile
}

// NewDialer returns an empty Dialer.
func NewDialer() *Dialer {
	return &Dialer{profiles: make(map[string]PathProfile)}
}

// SetProfile registers (or replaces) the profile for addr.
func (d *Dialer) SetProfile(addr string, p PathProfile) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.profiles[addr] = p
}

// Dial connects to addr and applies its profile, if any.
func (d *Dialer) Dial(network, addr string) (net.Conn, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, err
	}
	d.mu.Lock()
	p, ok := d.profiles[addr]
	d.mu.Unlock()
	if !ok {
		return conn, nil
	}
	return shape(conn, p), nil
}

// shape wraps a client's conn with the profile's rate limits and
// latency. Profiles give rates in bits/sec; buckets meter bytes. Both
// buckets start full, so each direction's first 64 KiB is a burst.
func shape(conn net.Conn, p PathProfile) *Conn {
	c := &Conn{Conn: conn, lat: p.Latency}
	if p.DownloadBps > 0 {
		c.rb = newBucket(p.DownloadBps/8, 64<<10)
	}
	if p.UploadBps > 0 {
		c.wb = newBucket(p.UploadBps/8, 64<<10)
	}
	return c
}
