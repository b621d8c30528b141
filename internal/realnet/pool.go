package realnet

import (
	"sync"
	"sync/atomic"
	"time"
)

// maxIdlePerPath is how many idle keep-alive connections each path
// retains. Multipath striping issues several concurrent warm chunks per
// path, so one slot would force all but one of them to dial cold.
//
// idleTTL is how long a parked connection may sit idle before the pool
// evicts it. It stays comfortably under the origin/relay keepAliveIdle
// (60 s) so the pool drops connections before the far end does.
const (
	maxIdlePerPath = 4
	idleTTL        = 30 * time.Second
)

// PoolStats is a point-in-time view of the connection pool's counters.
type PoolStats struct {
	Reuses    int64 // warm fetches served from a parked connection
	Misses    int64 // warm fetches that found no usable parked connection
	Parked    int64 // connections returned to the pool after a transfer
	Evicted   int64 // idle connections dropped by TTL expiry or Close
	Discarded int64 // connections turned away because the path's slots were full
	Idle      int   // connections currently parked, across all paths
}

// idleConn is one parked connection with its park time, for TTL expiry.
type idleConn struct {
	pc    *pooledConn
	since time.Time
}

// connPool is a bounded per-path pool of idle keep-alive connections.
// Each path keeps at most maxIdlePerPath parked connections, taken LIFO
// (the most recently parked connection has the widest-open congestion
// window and the most remaining keep-alive budget). Connections idle
// longer than idleTTL are dropped — lazily on take, and by a background
// sweeper that starts with the first park and stops on close. All
// connection closes run outside the pool lock.
type connPool struct {
	mu       sync.Mutex
	idle     map[string][]idleConn
	closed   bool
	sweeping bool
	stop     chan struct{}

	reuses    atomic.Int64
	misses    atomic.Int64
	parked    atomic.Int64
	evicted   atomic.Int64
	discarded atomic.Int64
}

func newConnPool() *connPool {
	return &connPool{
		idle: make(map[string][]idleConn),
		stop: make(chan struct{}),
	}
}

func (e idleConn) expired(now time.Time) bool {
	return now.Sub(e.since) > idleTTL
}

// take pops the path's most recently parked connection, dropping expired
// entries it finds on the way. It returns nil (a miss) when nothing
// usable is parked. A list it empties stays in the map, so the next park
// on the path appends without allocating; the sweeper deletes it if the
// path goes quiet.
func (p *connPool) take(key string) *pooledConn {
	now := time.Now()
	var dead []*pooledConn
	var got *pooledConn
	p.mu.Lock()
	if list, ok := p.idle[key]; ok && !p.closed {
		for len(list) > 0 && got == nil {
			e := list[len(list)-1]
			list[len(list)-1] = idleConn{} // the popped slot keeps no connection reachable
			list = list[:len(list)-1]
			if e.expired(now) {
				dead = append(dead, e.pc)
				continue
			}
			got = e.pc
		}
		p.idle[key] = list
	}
	p.mu.Unlock()
	for _, pc := range dead {
		pc.close()
		p.evicted.Add(1)
	}
	if got == nil {
		p.misses.Add(1)
		return nil
	}
	p.reuses.Add(1)
	return got
}

// park returns a still-usable connection to the path's idle slots,
// closing it instead when the pool is closed or the path is full.
func (p *connPool) park(key string, pc *pooledConn) {
	p.mu.Lock()
	if p.closed || len(p.idle[key]) >= maxIdlePerPath {
		p.mu.Unlock()
		pc.close()
		p.discarded.Add(1)
		return
	}
	p.idle[key] = append(p.idle[key], idleConn{pc: pc, since: time.Now()})
	startSweep := !p.sweeping
	p.sweeping = true
	p.mu.Unlock()
	p.parked.Add(1)
	if startSweep {
		go p.sweep()
	}
}

// sweep evicts TTL-expired connections every half-TTL until close.
func (p *connPool) sweep() {
	tick := time.NewTicker(idleTTL / 2)
	defer tick.Stop()
	for {
		select {
		case <-p.stop:
			return
		case now := <-tick.C:
			p.expire(now)
		}
	}
}

// expire drops every parked connection older than the TTL, and the
// lists of paths left with none.
func (p *connPool) expire(now time.Time) {
	var victims []*pooledConn
	p.mu.Lock()
	for key, list := range p.idle {
		kept := list[:0]
		for _, e := range list {
			if e.expired(now) {
				victims = append(victims, e.pc)
			} else {
				kept = append(kept, e)
			}
		}
		clear(list[len(kept):])
		if len(kept) == 0 {
			delete(p.idle, key)
		} else {
			p.idle[key] = kept
		}
	}
	p.mu.Unlock()
	for _, pc := range victims {
		pc.close()
		p.evicted.Add(1)
	}
}

// close evicts everything, stops the sweeper, and makes future parks
// discard. Idempotent.
func (p *connPool) close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	idle := p.idle
	p.idle = nil
	sweeping := p.sweeping
	p.mu.Unlock()
	if sweeping {
		close(p.stop)
	}
	for _, list := range idle {
		for _, e := range list {
			e.pc.close()
			p.evicted.Add(1)
		}
	}
}

func (p *connPool) stats() PoolStats {
	p.mu.Lock()
	idle := 0
	for _, list := range p.idle {
		idle += len(list)
	}
	p.mu.Unlock()
	return PoolStats{
		Reuses:    p.reuses.Load(),
		Misses:    p.misses.Load(),
		Parked:    p.parked.Load(),
		Evicted:   p.evicted.Load(),
		Discarded: p.discarded.Load(),
		Idle:      idle,
	}
}
