package registry

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
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
// the primary is unreachable. Heartbeats do not fail over: StartHeartbeat
// registers with the primary and every peer, so each registry holds the
// whole fleet and discovery survives a registry loss.
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
		bw.Write(appendMaddr(bw.AvailableBuffer(), metricsAddr))
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

// ListRanked fetches up to k entries ranked healthiest-first (k <= 0
// means all) as one full LISTD answer, ranked here as the server ranks
// them. Down-marked entries still inside their grace period are
// included, ranked last and flagged Down — filter them for candidate
// sets, show them for operations.
func (c *Client) ListRanked(ctx context.Context, k int) ([]Entry, error) {
	var out []Entry
	err := c.listDelta(ctx, 0, k, func(uint64, bool) { out = out[:0] }, func(line string) error {
		de, err := parseDeltaLine(line)
		if err == nil {
			out = append(out, de.Entry)
		}
		return err
	})
	if err != nil {
		return nil, err
	}
	sortRanked(out)
	return out, nil
}

// ListDelta fetches the changes since epoch (0 = first sync, returns a
// full snapshot). k bounds full snapshots only, to the ranked top k.
// Steady-state clients should hold a RankedSet and call its Refresh
// instead of re-applying deltas by hand.
func (c *Client) ListDelta(ctx context.Context, since uint64, k int) (Delta, error) {
	var d Delta
	err := c.listDelta(ctx, since, k, func(epoch uint64, full bool) {
		d = Delta{Epoch: epoch, Full: full}
	}, func(line string) error {
		de, err := parseDeltaLine(line)
		if err == nil {
			d.Entries = append(d.Entries, de)
		}
		return err
	})
	if err != nil {
		return Delta{}, err
	}
	return d, nil
}

// listDelta sends LISTD and passes the answer to the visitors as it is
// read: head with the EPOCH line, then line with each body line,
// trimmed (an error from line ends the answer with it). An attempt the
// client retries calls head again, where the visitors start over; an
// answer is complete only when listDelta returns nil.
func (c *Client) listDelta(ctx context.Context, since uint64, k int, head func(epoch uint64, full bool), line func(string) error) error {
	return c.do(ctx, func(bw *bufio.Writer, br *bufio.Reader) error {
		var err error
		if k > 0 {
			err = writeCommand(bw, "LISTD", since, uint64(k))
		} else {
			err = writeCommand(bw, "LISTD", since)
		}
		if err != nil {
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
		epoch, full, err := parseEpochLine(header)
		if err != nil {
			return err
		}
		head(epoch, full)
		for {
			l, err := br.ReadString('\n')
			if err != nil {
				return fmt.Errorf("%w: %v", errShortRead, err)
			}
			if l = strings.TrimSpace(l); l == "." {
				return nil
			}
			if err := line(l); err != nil {
				return err
			}
		}
	})
}

// StartHeartbeat registers name with every registry the client names —
// the primary and each fallback peer, through one client per registry
// with this one's timeout, retry and pooling — and then refreshes each
// every ttl/3 until ctx is done. It returns an error only when every
// registry refused the first registration (so callers fail fast on
// misconfiguration); a registry that was down keeps being tried on
// every tick and holds the entry from its first success on. Every
// refresh carries metricsAddr, the registrant's observability endpoint
// ("" omits it), and health, sampled per registration (nil means
// unreported). The returned HeartbeatState tracks whether any registry
// is still accepting refreshes, feeding relayd's readiness check.
func (c *Client) StartHeartbeat(ctx context.Context, name, relayAddr, metricsAddr string, ttl time.Duration, health func() float64) (*HeartbeatState, error) {
	state := &HeartbeatState{errs: make([]error, len(c.endpoints))}
	targets := make([]*Client, len(c.endpoints))
	for i, addr := range c.endpoints {
		targets[i] = &Client{endpoints: []string{addr}, timeout: c.timeout,
			retries: c.retries, backoff: c.backoff, pooled: c.pooled}
	}
	report := func(i int) {
		h := float64(HealthUnreported)
		if health != nil {
			h = health()
		}
		state.set(i, targets[i].RegisterFull(ctx, name, relayAddr, metricsAddr, ttl, h), time.Now())
	}
	var wg sync.WaitGroup
	for i := range targets {
		wg.Add(1)
		go func() {
			defer wg.Done()
			report(i)
		}()
	}
	wg.Wait()
	if !state.OK() {
		for _, t := range targets {
			t.Close()
		}
		return state, state.Err()
	}
	for i, t := range targets {
		go func() {
			defer t.Close()
			tick := time.NewTicker(ttl / 3)
			defer tick.Stop()
			for {
				select {
				case <-ctx.Done():
					return
				case <-tick.C:
					report(i) // retried next tick on error
				}
			}
		}()
	}
	return state, nil
}

// HeartbeatState is the observable status of a background heartbeat,
// feeding the relay daemon's readiness check.
type HeartbeatState struct {
	mu     sync.Mutex
	lastOK time.Time
	errs   []error // per registry, the latest registration's outcome
}

func (h *HeartbeatState) set(i int, err error, now time.Time) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.errs[i] = err
	if err == nil {
		h.lastOK = now
	}
}

// OK reports whether at least one registry accepted its most recent
// registration.
func (h *HeartbeatState) OK() bool {
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, err := range h.errs {
		if err == nil {
			return true
		}
	}
	return false
}

// LastOK returns when a registry last accepted a registration (zero if
// never).
func (h *HeartbeatState) LastOK() time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.lastOK
}

// Err joins the most recent error of every registry that refused its
// latest registration; nil when each one accepted.
func (h *HeartbeatState) Err() error {
	h.mu.Lock()
	defer h.mu.Unlock()
	return errors.Join(h.errs...)
}
