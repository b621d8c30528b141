package registry

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"
)

// Client is the options-first registry client, following the
// repro.Client / relay.New conventions: construct once with NewClient,
// then issue context-aware calls. Every method takes a context whose
// deadline (together with WithTimeout) bounds the call; transport
// failures walk the fallback peers and retry with backoff before
// surfacing as ErrUnavailable, while server rejections surface
// immediately as ErrRejected. A Client is safe for concurrent use.
//
//	c := registry.NewClient("10.0.0.5:8070",
//	    registry.WithTimeout(3*time.Second),
//	    registry.WithRetry(2, 100*time.Millisecond),
//	    registry.WithPooledConn(),
//	    registry.WithFallbackPeers("10.0.0.6:8070"))
//	defer c.Close()
//	relays, err := c.ListRanked(ctx, 10)
type Client struct {
	endpoints []string // the primary address, then the fallback peers
	timeout   time.Duration
	retries   int
	backoff   time.Duration
	pooled    bool

	mu       sync.Mutex
	conn     net.Conn
	br       *bufio.Reader
	bw       *bufio.Writer
	connAddr string
}

// ClientOption configures a Client.
type ClientOption func(*Client)

// NewClient returns a registry client for addr. Without options it
// dials fresh per call with a DefaultTimeout deadline and no retry —
// the legacy free functions' behavior, minus their hard-coding.
func NewClient(addr string, opts ...ClientOption) *Client {
	c := &Client{endpoints: []string{addr}, timeout: DefaultTimeout, backoff: 100 * time.Millisecond}
	for _, o := range opts {
		o(c)
	}
	return c
}

// WithTimeout bounds each request: the connection deadline is the
// sooner of now+d and the context's own deadline. Zero or negative
// keeps DefaultTimeout.
func WithTimeout(d time.Duration) ClientOption {
	return func(c *Client) {
		if d > 0 {
			c.timeout = d
		}
	}
}

// WithRetry retries a transport-failed request up to n more times,
// sleeping backoff, 2*backoff, ... between rounds. Each round tries the
// primary address and every fallback peer once. Server rejections
// (ErrRejected) are never retried — the registry answered.
func WithRetry(n int, backoff time.Duration) ClientOption {
	return func(c *Client) {
		c.retries = n
		if backoff > 0 {
			c.backoff = backoff
		}
	}
}

// WithPooledConn keeps one connection open across calls instead of
// dialing per request (the server holds sessions open; its per-command
// deadline resets on every line). A stale pooled connection — the
// server restarted, an idle timeout fired — is redialed transparently
// without consuming a retry. Heartbeating relays and delta-polling
// clients want this: steady state is one round trip with no dial.
func WithPooledConn() ClientOption {
	return func(c *Client) { c.pooled = true }
}

// WithFallbackPeers adds peer registry addresses tried in order when
// the primary is unreachable. With peered registryds (anti-entropy
// keeps them converged) this makes discovery and heartbeats survive a
// registry loss.
func WithFallbackPeers(addrs ...string) ClientOption {
	return func(c *Client) { c.endpoints = append(c.endpoints, addrs...) }
}

// Close releases the pooled connection, if any.
func (c *Client) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.dropConnLocked()
}

func (c *Client) dropConnLocked() error {
	var err error
	if c.conn != nil {
		err = c.conn.Close()
		c.conn, c.br, c.bw, c.connAddr = nil, nil, nil, ""
	}
	return err
}

// deadline computes the per-request connection deadline.
func (c *Client) deadline(ctx context.Context) time.Time {
	dl := time.Now().Add(c.timeout)
	if cd, ok := ctx.Deadline(); ok && cd.Before(dl) {
		dl = cd
	}
	return dl
}

// do runs one round-trip against the first reachable endpoint,
// retrying with backoff. roundTrip writes the request and parses the
// response; an error it wraps in ErrRejected or ErrBadEntry is a
// server answer and returns immediately.
func (c *Client) do(ctx context.Context, roundTrip func(bw *bufio.Writer, br *bufio.Reader) error) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var lastErr error
	for attempt := 0; ; attempt++ {
		for _, addr := range c.endpoints {
			if err := ctx.Err(); err != nil {
				return err
			}
			err := c.tryLocked(ctx, addr, roundTrip)
			if err == nil {
				return nil
			}
			if isProtocolErr(err) {
				return err
			}
			lastErr = err
		}
		if attempt >= c.retries {
			return fmt.Errorf("%w (tried %s): %v", ErrUnavailable, strings.Join(c.endpoints, ", "), lastErr)
		}
		timer := time.NewTimer(c.backoff << attempt)
		select {
		case <-timer.C:
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		}
	}
}

// isProtocolErr reports whether the server answered (no point retrying
// elsewhere).
func isProtocolErr(err error) bool {
	return errors.Is(err, ErrRejected) || errors.Is(err, ErrBadEntry) ||
		errors.Is(err, ErrBadName) || errors.Is(err, ErrBadTTL)
}

// tryLocked runs roundTrip against addr, reusing the pooled connection
// when possible. A reused connection that fails is discarded and the
// round-trip re-runs once on a fresh dial — a stale pooled conn (idle
// timeout, restarted server) must not burn the caller's attempt.
func (c *Client) tryLocked(ctx context.Context, addr string, roundTrip func(bw *bufio.Writer, br *bufio.Reader) error) error {
	reused := false
	if c.pooled && c.conn != nil && c.connAddr == addr {
		reused = true
	} else {
		if err := c.dialLocked(ctx, addr); err != nil {
			return err
		}
	}
	err := c.runLocked(ctx, roundTrip)
	if err == nil || isProtocolErr(err) {
		return err
	}
	c.dropConnLocked()
	if !reused {
		return err
	}
	if derr := c.dialLocked(ctx, addr); derr != nil {
		return derr
	}
	err = c.runLocked(ctx, roundTrip)
	if err != nil && !isProtocolErr(err) {
		c.dropConnLocked()
	}
	return err
}

func (c *Client) dialLocked(ctx context.Context, addr string) error {
	c.dropConnLocked()
	d := net.Dialer{Deadline: c.deadline(ctx)}
	conn, err := d.DialContext(ctx, "tcp", addr)
	if err != nil {
		return err
	}
	// Reader and writer live as long as the connection: a pooled client
	// allocates neither per command.
	c.conn, c.br, c.bw, c.connAddr = conn, bufio.NewReader(conn), bufio.NewWriter(conn), addr
	return nil
}

func (c *Client) runLocked(ctx context.Context, roundTrip func(bw *bufio.Writer, br *bufio.Reader) error) error {
	c.conn.SetDeadline(c.deadline(ctx))
	err := roundTrip(c.bw, c.br)
	if err == nil && !c.pooled {
		c.dropConnLocked()
	}
	return err
}

// Register inserts or refreshes name at the registry with no health
// report.
func (c *Client) Register(ctx context.Context, name, relayAddr string, ttl time.Duration) error {
	return c.RegisterHealth(ctx, name, relayAddr, ttl, HealthUnreported)
}

// RegisterHealth inserts or refreshes name carrying a self-reported
// health score (HealthUnreported omits it from the wire).
func (c *Client) RegisterHealth(ctx context.Context, name, relayAddr string, ttl time.Duration, health float64) error {
	return c.RegisterFull(ctx, name, relayAddr, "", ttl, health)
}

// RegisterFull is RegisterHealth plus the registrant's observability
// endpoint (its daemon HTTP address; "" omits it from the wire). The
// six-field form always carries an explicit health token — the -1
// sentinel when unreported — because metrics-addr is positional.
func (c *Client) RegisterFull(ctx context.Context, name, relayAddr, metricsAddr string, ttl time.Duration, health float64) error {
	if !validTokens(name, relayAddr, metricsAddr) {
		return ErrBadName
	}
	if ttl <= 0 {
		return ErrBadTTL
	}
	return c.do(ctx, func(bw *bufio.Writer, br *bufio.Reader) error {
		bw.WriteString("REGISTER ")
		bw.WriteString(name)
		bw.WriteByte(' ')
		bw.WriteString(relayAddr)
		bw.WriteByte(' ')
		writeUint(bw, uint64(ttl.Seconds()))
		if metricsAddr != "" || health != HealthUnreported {
			bw.WriteByte(' ')
			bw.Write(appendHealth(bw.AvailableBuffer(), health))
		}
		bw.WriteString(maddrSuffix(metricsAddr))
		bw.WriteByte('\n')
		if err := bw.Flush(); err != nil {
			return err
		}
		line, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("%w: %v", errShortRead, err)
		}
		line = strings.TrimSpace(line)
		if line != "OK" {
			return fmt.Errorf("%w: %s", ErrRejected, line)
		}
		return nil
	})
}

// List fetches the live relay set (name-sorted on the server).
func (c *Client) List(ctx context.Context) ([]Entry, error) {
	return c.list(ctx, false, "LIST")
}

// ListRanked fetches up to k entries ranked healthiest-first (k <= 0
// means all). Down-marked entries still inside their grace period are
// included, ranked last and flagged Down — filter them for candidate
// sets, show them for operations.
func (c *Client) ListRanked(ctx context.Context, k int) ([]Entry, error) {
	if k > 0 {
		return c.list(ctx, true, "LISTH", uint64(k))
	}
	return c.list(ctx, true, "LISTH")
}

func (c *Client) list(ctx context.Context, ranked bool, verb string, args ...uint64) ([]Entry, error) {
	var out []Entry
	err := c.do(ctx, func(bw *bufio.Writer, br *bufio.Reader) error {
		out = out[:0] // a retried round-trip must not duplicate entries
		if err := writeCommand(bw, verb, args...); err != nil {
			return err
		}
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return fmt.Errorf("%w: %v", errShortRead, err)
			}
			line = strings.TrimSpace(line)
			if line == "." {
				return nil
			}
			if rest, ok := strings.CutPrefix(line, "ERR "); ok {
				return fmt.Errorf("%w: %s", ErrRejected, rest)
			}
			e, err := parseListEntry(line, ranked)
			if err != nil {
				return err
			}
			out = append(out, e)
		}
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// ListDelta fetches the changes since epoch (0 = first sync, returns a
// full snapshot). k bounds full snapshots only, as in LISTH.
// Steady-state clients should hold a RankedSet and call its Refresh
// instead of re-applying deltas by hand.
func (c *Client) ListDelta(ctx context.Context, since uint64, k int) (Delta, error) {
	if k > 0 {
		return c.delta(ctx, parseDeltaLine, "LISTD", since, uint64(k))
	}
	return c.delta(ctx, parseDeltaLine, "LISTD", since)
}

// syncPull fetches a peer sync delta (SeenEpoch-keyed, absolute
// LastSeen/TTL) — the PeerSync transport.
func (c *Client) syncPull(ctx context.Context, since uint64) (Delta, error) {
	return c.delta(ctx, parseSyncLine, "SYNCD", since)
}

func (c *Client) delta(ctx context.Context, parseLine func(string) (DeltaEntry, error), verb string, args ...uint64) (Delta, error) {
	var d Delta
	err := c.do(ctx, func(bw *bufio.Writer, br *bufio.Reader) error {
		d = Delta{}
		if err := writeCommand(bw, verb, args...); err != nil {
			return err
		}
		header, err := br.ReadString('\n')
		if err != nil {
			return fmt.Errorf("%w: %v", errShortRead, err)
		}
		header = strings.TrimSpace(header)
		if rest, ok := strings.CutPrefix(header, "ERR "); ok {
			return fmt.Errorf("%w: %s", ErrRejected, rest)
		}
		d.Epoch, d.Full, err = parseEpochLine(header)
		if err != nil {
			return err
		}
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				return fmt.Errorf("%w: %v", errShortRead, err)
			}
			line = strings.TrimSpace(line)
			if line == "." {
				return nil
			}
			de, err := parseLine(line)
			if err != nil {
				return err
			}
			d.Entries = append(d.Entries, de)
		}
	})
	if err != nil {
		return Delta{}, err
	}
	return d, nil
}

// Epoch fetches the registry's current epoch and table digest — the
// cheap "anything new?" probe peers and monitors use.
func (c *Client) Epoch(ctx context.Context) (epoch, digest uint64, err error) {
	err = c.do(ctx, func(bw *bufio.Writer, br *bufio.Reader) error {
		if werr := writeCommand(bw, "EPOCH"); werr != nil {
			return werr
		}
		line, rerr := br.ReadString('\n')
		if rerr != nil {
			return fmt.Errorf("%w: %v", errShortRead, rerr)
		}
		fields := strings.Fields(line)
		if len(fields) != 3 || fields[0] != "EPOCH" {
			return fmt.Errorf("%w: %q", ErrBadEntry, strings.TrimSpace(line))
		}
		var perr error
		if epoch, perr = strconv.ParseUint(fields[1], 10, 64); perr != nil {
			return fmt.Errorf("%w: %q", ErrBadEntry, strings.TrimSpace(line))
		}
		if digest, perr = strconv.ParseUint(fields[2], 10, 64); perr != nil {
			return fmt.Errorf("%w: %q", ErrBadEntry, strings.TrimSpace(line))
		}
		return nil
	})
	return epoch, digest, err
}

// StartHeartbeat registers name immediately (returning that first
// error, so callers fail fast on misconfiguration) and then keeps it
// registered every ttl/3 until ctx is done. Each tick re-resolves
// through the client — pooled connections redial transparently and
// fallback peers are tried — so one refused connection doesn't burn a
// tick. health is sampled per tick (nil means unreported). The
// returned HeartbeatState tracks whether the registry is still
// accepting refreshes, feeding relayd's readiness check.
func (c *Client) StartHeartbeat(ctx context.Context, name, relayAddr string, ttl time.Duration, health func() float64) (*HeartbeatState, error) {
	return c.StartHeartbeatFull(ctx, name, relayAddr, "", ttl, health)
}

// StartHeartbeatFull is StartHeartbeat with the registrant's
// observability endpoint carried on every refresh ("" omits it).
func (c *Client) StartHeartbeatFull(ctx context.Context, name, relayAddr, metricsAddr string, ttl time.Duration, health func() float64) (*HeartbeatState, error) {
	report := func() error {
		h := float64(HealthUnreported)
		if health != nil {
			h = health()
		}
		return c.RegisterFull(ctx, name, relayAddr, metricsAddr, ttl, h)
	}
	state := &HeartbeatState{}
	err := report()
	state.set(err, time.Now())
	if err != nil {
		return state, err
	}
	go func() {
		t := time.NewTicker(ttl / 3)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				state.set(report(), time.Now()) // retried next tick on error
			}
		}
	}()
	return state, nil
}

// HeartbeatState is the observable status of a background heartbeat,
// feeding the relay daemon's readiness check.
type HeartbeatState struct {
	mu     sync.Mutex
	lastOK time.Time
	err    error
	ok     bool
}

func (h *HeartbeatState) set(err error, now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.err = err
	h.ok = err == nil
	if err == nil {
		h.lastOK = now
	}
}

// OK reports whether the most recent registration attempt succeeded.
func (h *HeartbeatState) OK() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.ok
}

// LastOK returns when the registry last accepted a registration (zero
// if never).
func (h *HeartbeatState) LastOK() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastOK
}

// Err returns the most recent registration error, nil after a success.
func (h *HeartbeatState) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.err
}
