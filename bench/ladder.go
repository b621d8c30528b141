package main

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"strings"

	"repro"
	"repro/internal/httpx"
	"repro/internal/objcache"
	"repro/internal/registry"
	"repro/internal/relay"
	"repro/internal/stats"
)

// The ladder prices each layer from outside: every rung times a fixed
// number of calls into one package's public functions, on one goroutine,
// at the two object sizes of the select workloads. A rung's cost is the
// median of ladderTrials passes, so it can be read against the rung
// beneath it (raw loopback, then httpx, origin, forward, realnet, core).

const (
	ladderTrials = 5
	small        = 128 << 10
	bulk         = 8 << 20
)

// cost is what one call of a rung cost, whole process (the in-process
// servers' share included).
type cost struct {
	ns     float64
	allocs float64
	bytes  float64
}

func (c cost) us() float64 { return c.ns / 1e3 }
func (c cost) ms() float64 { return c.ns / 1e6 }
func (c cost) kb() float64 { return c.bytes / 1024 }

// mbps is the rate at which calls moving size bytes each ran, in MB/s
// (1 MB = 1e6 bytes).
func (c cost) mbps(size int) float64 { return float64(size) / 1e6 / (c.ns / 1e9) }

type ladder struct {
	cfg     runConfig
	metrics map[string]float64
	errs    []error
}

// time runs call n times per pass (n shrinks with the run's scale): one
// untimed pass to warm up, then ladderTrials timed ones. prep, when
// given, runs untimed before every pass.
func (l *ladder) time(n int, prep func(), call func(i int) error) cost {
	n = l.cfg.scaled(n)
	pass := func() (cost, error) {
		if prep != nil {
			prep()
		}
		before := readUsage()
		for i := 0; i < n; i++ {
			if err := call(i); err != nil {
				return cost{}, err
			}
		}
		after := readUsage()
		calls := float64(n)
		return cost{
			ns:     float64(after.at.Sub(before.at)) / calls,
			allocs: float64(after.mallocs-before.mallocs) / calls,
			bytes:  float64(after.bytes-before.bytes) / calls,
		}, nil
	}
	if _, err := pass(); err != nil {
		l.errs = append(l.errs, err)
		return cost{}
	}
	var ns, allocs, bytes []float64
	for t := 0; t < ladderTrials; t++ {
		c, err := pass()
		if err != nil {
			l.errs = append(l.errs, err)
			return cost{}
		}
		ns, allocs, bytes = append(ns, c.ns), append(allocs, c.allocs), append(bytes, c.bytes)
	}
	return cost{ns: stats.Median(ns), allocs: stats.Median(allocs), bytes: stats.Median(bytes)}
}

// runLadder measures every rung and returns the ladder's per-layer
// metrics by name.
func runLadder(cfg runConfig) (map[string]float64, error) {
	l := &ladder{cfg: cfg, metrics: map[string]float64{}}
	for _, layer := range []func() error{l.host, l.httpx, l.content, l.relays, l.objcache, l.realnet, l.registry} {
		if err := layer(); err != nil {
			l.errs = append(l.errs, err)
		}
	}
	return l.metrics, errors.Join(l.errs...)
}

// host measures the floor: the kernel's loopback TCP, no repo code. If
// these move between two runs, the machine changed.
func (l *ladder) host() error {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	payload := make([]byte, bulk)
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			go func() {
				defer conn.Close()
				cmd := make([]byte, 1)
				for {
					if _, err := io.ReadFull(conn, cmd); err != nil {
						return
					}
					reply := cmd
					if cmd[0] == 'b' {
						reply = payload
					}
					if _, err := conn.Write(reply); err != nil {
						return
					}
				}
			}()
		}
	}()
	addr := ln.Addr().String()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return err
	}
	defer conn.Close()
	ask := func(cmd byte, want int64) error {
		if _, err := conn.Write([]byte{cmd}); err != nil {
			return err
		}
		_, err := io.CopyN(io.Discard, conn, want)
		return err
	}
	l.metrics["host.loopback_MBps_8M"] = l.time(4, nil, func(int) error { return ask('b', bulk) }).mbps(bulk)
	l.metrics["host.loopback_rtt_us"] = l.time(2000, nil, func(int) error { return ask('p', 1) }).us()
	l.metrics["host.dial_us"] = l.time(300, nil, func(int) error {
		c, err := net.Dial("tcp", addr)
		if err != nil {
			return err
		}
		return c.Close()
	}).us()
	return nil
}

// httpx prices one request/response head round trip through the codec,
// in memory.
func (l *ladder) httpx() error {
	var wire bytes.Buffer
	br := bufio.NewReader(&wire)
	c := l.time(5000, nil, func(int) error {
		wire.Reset()
		br.Reset(&wire)
		req := httpx.NewGet("http://127.0.0.1:8080/ladder.bin", "127.0.0.1:8080")
		req.SetRange(0, small)
		if err := req.Write(&wire); err != nil {
			return err
		}
		if _, err := httpx.ReadRequest(br); err != nil {
			return err
		}
		head := map[string]string{
			"content-length": "131072",
			"accept-ranges":  "bytes",
			"content-range":  httpx.ContentRange(0, small, 1<<30),
		}
		if err := httpx.WriteResponseHead(&wire, 206, "Partial Content", head); err != nil {
			return err
		}
		_, err := httpx.ReadResponse(br)
		return err
	})
	l.metrics["httpx.codec_us_per_req"] = c.us()
	l.metrics["httpx.codec_allocs_per_req"] = c.allocs
	return nil
}

// content prices the synthetic object content: what the origin spends
// making bytes and the client spends verifying them.
func (l *ladder) content() error {
	buf := make([]byte, bulk)
	l.metrics["relay.fill_MBps"] = l.time(2, nil, func(int) error {
		relay.FillRange("ladder.bin", 0, buf)
		return nil
	}).mbps(bulk)
	l.metrics["relay.writerange_MBps"] = l.time(2, nil, func(int) error {
		_, err := relay.WriteRange(io.Discard, "ladder.bin", 0, bulk, nil)
		return err
	}).mbps(bulk)
	l.metrics["relay.verify_MBps"] = l.time(2, nil, func(int) error {
		if !relay.NewVerifier("ladder.bin", 0).Verify(buf) {
			return errors.New("verifier rejected canonical content")
		}
		return nil
	}).mbps(bulk)
	return nil
}

// rawClient speaks httpx on one keep-alive connection and discards the
// body. relay.Fetch is not used: it dials per call and materialises the
// body, which is the harness's cost, not the server's.
type rawClient struct {
	conn net.Conn
	br   *bufio.Reader
}

func dialRaw(addr string) (*rawClient, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &rawClient{conn: conn, br: bufio.NewReader(conn)}, nil
}

func (c *rawClient) get(target, host string, off, n int64) error {
	req := httpx.NewGet(target, host)
	delete(req.Header, "connection") // keep-alive
	req.SetRange(off, n)
	if err := req.Write(c.conn); err != nil {
		return err
	}
	resp, err := httpx.ReadResponse(c.br)
	if err != nil {
		return err
	}
	if resp.Status != 200 && resp.Status != 206 {
		return fmt.Errorf("status %d %s for %s", resp.Status, resp.Reason, target)
	}
	if got, err := io.Copy(io.Discard, resp.Body); err != nil || got != n {
		return fmt.Errorf("body of %s: %d of %d bytes: %v", target, got, n, err)
	}
	return nil
}

// ladderMissObjects is how many distinct objects the miss rung rotates
// through; the rung's cache holds half of them, so every fetch misses,
// fills and evicts. Distinct objects, not adjacent offsets of one: the
// cache coalesces adjacent spans, which would price the merge instead.
const ladderMissObjects = 512

// relays prices the origin's serve path, the uncached forward and the
// cached forward, all with the same raw client.
func (l *ladder) relays() error {
	origin := relay.NewOriginServer()
	origin.Put("ladder.bin", 1<<30)
	var missNames []string
	for i := 0; i < ladderMissObjects; i++ {
		missNames = append(missNames, fmt.Sprintf("miss-%03d.bin", i))
		origin.Put(missNames[i], small)
	}
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ol.Close()
	originAddr := ol.Addr().String()
	direct, err := dialRaw(originAddr)
	if err != nil {
		return err
	}
	defer direct.conn.Close()
	originSmall := l.time(300, nil, func(int) error { return direct.get("/ladder.bin", originAddr, 0, small) })
	l.metrics["relay.origin_us_128K"] = originSmall.us()
	l.metrics["relay.origin_allocs_per_req"] = originSmall.allocs
	l.metrics["relay.origin_MBps_8M"] = l.time(2, nil, func(int) error {
		return direct.get("/ladder.bin", originAddr, 0, bulk)
	}).mbps(bulk)

	via := func(r *relay.Relay) (*rawClient, func(), error) {
		rl, err := r.ServeAddr("127.0.0.1:0")
		if err != nil {
			return nil, nil, err
		}
		c, err := dialRaw(rl.Addr().String())
		if err != nil {
			rl.Close()
			return nil, nil, err
		}
		return c, func() { c.conn.Close(); rl.Close() }, nil
	}
	target := func(name string) string { return "http://" + originAddr + "/" + name }

	forward, stop, err := via(relay.New())
	if err != nil {
		return err
	}
	defer stop()
	forwardSmall := l.time(200, nil, func(int) error { return forward.get(target("ladder.bin"), originAddr, 0, small) })
	l.metrics["relay.forward_us_128K"] = forwardSmall.us()
	l.metrics["relay.forward_allocs_per_req"] = forwardSmall.allocs
	l.metrics["relay.forward_self_us_128K"] = forwardSmall.us() - originSmall.us()
	l.metrics["relay.forward_MBps_8M"] = l.time(2, nil, func(int) error {
		return forward.get(target("ladder.bin"), originAddr, 0, bulk)
	}).mbps(bulk)

	cached, stop, err := via(relay.New(relay.WithCache(ladderMissObjects / 2 * small)))
	if err != nil {
		return err
	}
	defer stop()
	hit := l.time(400, nil, func(int) error { return cached.get(target("ladder.bin"), originAddr, 0, small) })
	l.metrics["relay.cache_hit_us_128K"] = hit.us()
	l.metrics["relay.cache_hit_alloc_KB_per_req"] = hit.kb()
	next := 0 // keeps rotating across passes, so no pass finds its objects resident
	miss := l.time(150, nil, func(int) error {
		next++
		return cached.get(target(missNames[next%ladderMissObjects]), originAddr, 0, small)
	})
	l.metrics["relay.cache_miss_us_128K"] = miss.us()
	l.metrics["relay.cache_miss_alloc_KB_per_req"] = miss.kb()
	return nil
}

// objcache prices the cache itself, in process.
func (l *ladder) objcache() error {
	data := make([]byte, small)
	var keys []string
	for i := 0; i < 1024; i++ {
		keys = append(keys, fmt.Sprintf("127.0.0.1:8080/obj-%04d.bin", i))
	}
	c := objcache.New(objcache.Config{MaxBytes: 64 * small})
	c.Put(keys[0], 0, data)
	l.metrics["objcache.get_hit_ns_128K"] = l.time(200000, nil, func(int) error {
		if _, ok := c.Get(keys[0], 0, small); !ok {
			return errors.New("objcache: resident span missed")
		}
		return nil
	}).ns
	// Every pass of the plain put fills a fresh cache big enough to hold
	// the pass; the evicting put cycles more keys than its cache holds.
	const puts = 200
	l.metrics["objcache.put_us_128K"] = l.time(puts, func() {
		c = objcache.New(objcache.Config{MaxBytes: puts * small})
	}, func(i int) error {
		c.Put(keys[i], 0, data)
		return nil
	}).us()
	c = objcache.New(objcache.Config{MaxBytes: 64 * small})
	l.metrics["objcache.put_evict_us_128K"] = l.time(puts, nil, func(i int) error {
		c.Put(keys[i%len(keys)], 0, data)
		return nil
	}).us()
	return nil
}

// realnet prices the client transport against the same origin and
// uncached relay shape, and core as what SelectAndFetch adds to one cold
// relayed fetch.
func (l *ladder) realnet() error {
	stack, err := newSelectStack(l.cfg.seed, small)
	if err != nil {
		return err
	}
	defer stack.close()
	stack.origin.Put("ladder.bin", 1<<30)
	obj := repro.Object{Server: stack.obj.Server, Name: "ladder.bin", Size: 1 << 30}
	// The select stack shapes the client's direct path; this rung wants
	// the same transport unshaped.
	tr := &repro.RealTransport{Servers: stack.transport.Servers, Relays: stack.transport.Relays, Verify: true}
	defer tr.Close()
	fetch := func(start func(repro.Object, repro.Path, int64, int64) repro.Handle, via string, n int64) func(int) error {
		return func(int) error {
			h := start(obj, repro.Path{Via: via}, 0, n)
			tr.Wait(h)
			return h.Result().Err
		}
	}
	l.metrics["realnet.direct_cold_us_128K"] = l.time(200, nil, fetch(tr.Start, repro.Direct, small)).us()
	warm := l.time(300, nil, fetch(tr.StartWarm, repro.Direct, small))
	l.metrics["realnet.direct_warm_us_128K"] = warm.us()
	l.metrics["realnet.warm_allocs_per_fetch"] = warm.allocs
	l.metrics["realnet.warm_alloc_KB_per_fetch"] = warm.kb()
	l.metrics["realnet.direct_warm_MBps_8M"] = l.time(2, nil, fetch(tr.StartWarm, repro.Direct, bulk)).mbps(bulk)
	relayedCold := l.time(200, nil, fetch(tr.Start, "r1", small))
	l.metrics["realnet.relayed_cold_us_128K"] = relayedCold.us()
	l.metrics["realnet.relayed_warm_MBps_8M"] = l.time(2, nil, fetch(tr.StartWarm, "r1", bulk)).mbps(bulk)

	selected := l.time(100, nil, func(int) error {
		ctx, cancel := context.WithTimeout(context.Background(), opDeadline)
		defer cancel()
		_, err := stack.selectAndFetch(ctx)
		return err
	})
	l.metrics["core.select_overhead_us_128K"] = selected.us() - relayedCold.us()
	return nil
}

// registry prices the discovery tier on the workload's table size, in
// process and over the wire.
func (l *ladder) registry() error {
	srv := &registry.Server{}
	rng := rand.New(rand.NewSource(l.cfg.seed))
	names, addrs, health, err := preloadRegistry(srv, rng, l.cfg.scaled(churnRelays))
	if err != nil {
		return err
	}
	register := func(i int) error {
		return srv.RegisterHealth(names[i], addrs[i], churnTTL, float64(health[i])/1000)
	}
	quiet := srv.Epoch()
	l.metrics["registry.server_listdelta_quiet_us"] = l.time(20, nil, func(int) error {
		if d := srv.ListDelta(quiet, 0); d.Full || len(d.Entries) != 0 {
			return fmt.Errorf("quiet ListDelta returned full=%v, %d entries", d.Full, len(d.Entries))
		}
		return nil
	}).us()
	for i := 0; i < churnChanges; i++ {
		health[i] = (health[i] + 1) % 1000
		if err := register(i); err != nil {
			return err
		}
	}
	l.metrics["registry.server_listdelta_changed_us"] = l.time(20, nil, func(int) error {
		if d := srv.ListDelta(quiet, 0); d.Full || len(d.Entries) != churnChanges {
			return fmt.Errorf("changed ListDelta returned full=%v, %d entries", d.Full, len(d.Entries))
		}
		return nil
	}).us()
	l.metrics["registry.server_listranked10_ms"] = l.time(4, nil, func(int) error {
		if got := len(srv.ListRanked(10)); got != 10 {
			return fmt.Errorf("ListRanked(10) returned %d entries", got)
		}
		return nil
	}).ms()
	l.metrics["registry.server_register_refresh_ns"] = l.time(20000, nil, func(i int) error {
		return register(i % len(names))
	}).ns
	l.metrics["registry.server_register_change_ns"] = l.time(20000, nil, func(i int) error {
		i %= len(names)
		health[i] = (health[i] + 1) % 1000
		return register(i)
	}).ns

	ln, err := srv.ServeAddr("127.0.0.1:0")
	if err != nil {
		return err
	}
	defer ln.Close()
	client := repro.NewRegistryClient(ln.Addr().String(), repro.WithRegistryPooledConn())
	defer client.Close()
	ctx, cancel := context.WithTimeout(context.Background(), wallCap)
	defer cancel()
	quiet = srv.Epoch()
	l.metrics["registry.wire_listd_quiet_us"] = l.time(20, nil, func(int) error {
		d, err := client.ListDelta(ctx, quiet, 0)
		if err == nil && (d.Full || len(d.Entries) != 0) {
			err = fmt.Errorf("quiet LISTD returned full=%v, %d entries", d.Full, len(d.Entries))
		}
		return err
	}).us()
	l.metrics["registry.wire_register_us"] = l.time(500, nil, func(i int) error {
		i %= len(names)
		return client.RegisterHealth(ctx, names[i], addrs[i], churnTTL, float64(health[i])/1000)
	}).us()

	// The size of a quiet poll's answer, read off a raw connection.
	conn, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		return err
	}
	defer conn.Close()
	if _, err := fmt.Fprintf(conn, "LISTD %d\n", srv.Epoch()); err != nil {
		return err
	}
	br := bufio.NewReader(conn)
	answer := 0
	for {
		line, err := br.ReadString('\n')
		if err != nil {
			return err
		}
		answer += len(line)
		if strings.TrimSpace(line) == "." {
			break
		}
	}
	l.metrics["registry.wire_listd_quiet_bytes"] = float64(answer)
	return nil
}
