package registry

import (
	"context"
	"log/slog"
	"sync"
	"time"
)

// Peer anti-entropy: registryd instances configured with -peer pull
// SYNCD deltas from each other on an interval and merge them
// last-writer-wins on LastSeen. A heartbeat reaching either peer
// converges on both within one sync interval, and killing one registryd
// leaves discovery working against the survivor (clients fail over via
// WithFallbackPeers). Pulls are keyed by the remote's epoch (SeenEpoch
// stamps, so pure heartbeat refreshes propagate liveness), with a cheap
// EPOCH probe first so an idle peer costs one line per interval.

// SyncDelta returns the entries refreshed since the given remote-known
// epoch, carrying the absolute LastSeen/TTL a merge needs. Unlike
// ListDelta it filters on SeenEpoch, so pure heartbeat refreshes —
// invisible to LISTD clients — still reach peers.
func (s *Server) SyncDelta(since uint64) Delta {
	s.init()
	cur := s.epoch.Load()
	if s.needsFull(since, cur) {
		return s.fullSync(since, cur)
	}
	d := Delta{Since: since, Epoch: cur}
	s.scan(func(sh *shard) bool { return sh.lastSeen <= since },
		func(e Entry) {
			if e.seenEpoch > since {
				d.Entries = append(d.Entries, DeltaEntry{Entry: e})
			}
		}, func(name string, t tombstone) {
			if t.Epoch > since {
				d.Entries = append(d.Entries, deletedSince(name, t))
			}
		})
	if s.needsFull(since, cur) {
		return s.fullSync(since, cur) // a needed tombstone was pruned mid-scan
	}
	return d
}

// fullSync is the SYNCD answer when needsFull: every entry, and every
// delete too — a peer may hold entries we tombstoned while it was
// partitioned from us.
func (s *Server) fullSync(since, cur uint64) Delta {
	d := Delta{Since: since, Epoch: cur, Full: true}
	s.scan(nil, func(e Entry) { d.Entries = append(d.Entries, DeltaEntry{Entry: e}) },
		func(name string, t tombstone) { d.Entries = append(d.Entries, deletedSince(name, t)) })
	return d
}

// deletedSince is the sync record of a tombstone: the delete and the
// LastSeen it supersedes.
func deletedSince(name string, t tombstone) DeltaEntry {
	return DeltaEntry{Entry: Entry{Name: name, LastSeen: t.LastSeen}, Deleted: true}
}

// Merge folds a peer's sync delta into the table, last-writer-wins on
// LastSeen (ties keep the local copy — both sides already agree after
// one direction applies). Returns how many records changed the table.
// Merged entries claim fresh local epochs, so the peer's changes flow
// onward to this server's own delta clients and peers.
func (s *Server) Merge(entries []DeltaEntry) int {
	s.init()
	now := s.now()
	applied := 0
	for _, de := range entries {
		sh := s.shardFor(de.Name)
		sh.mu.Lock()
		if de.Deleted {
			if t, ok := sh.tombs[de.Name]; ok && !t.LastSeen.Before(de.LastSeen) {
				sh.mu.Unlock()
				continue
			}
			if e, ok := sh.entries[de.Name]; ok && e.LastSeen.After(de.LastSeen) {
				sh.mu.Unlock()
				continue // heartbeat newer than the delete: the relay re-registered
			}
			delete(sh.entries, de.Name)
			keep := now.Add(tombstoneKeep)
			sh.tombs[de.Name] = tombstone{Epoch: s.stamp(sh, de.Name, true, keep), LastSeen: de.LastSeen, Keep: keep}
			applied++
			sh.mu.Unlock()
			continue
		}
		if t, ok := sh.tombs[de.Name]; ok && !t.LastSeen.Before(de.LastSeen) {
			sh.mu.Unlock()
			continue // deleted at or after the remote last saw it alive
		}
		old, existed := sh.entries[de.Name]
		if existed && !old.LastSeen.Before(de.LastSeen) {
			sh.mu.Unlock()
			continue
		}
		delete(sh.tombs, de.Name)
		e := Entry{
			Name: de.Name, Addr: de.Addr, Health: de.Health,
			LastSeen: de.LastSeen, TTL: de.TTL,
			Expires:     de.LastSeen.Add(de.TTL),
			MetricsAddr: de.MetricsAddr,
		}
		e.Down = e.Expires.Before(now)
		material := !existed || old.Addr != e.Addr || old.Health != e.Health ||
			old.MetricsAddr != e.MetricsAddr || old.Down != e.Down
		e.seenEpoch = s.stamp(sh, de.Name, material, e.due())
		e.ChangeEpoch = old.ChangeEpoch
		if material {
			e.ChangeEpoch = e.seenEpoch
		}
		sh.entries[de.Name] = e
		applied++
		sh.mu.Unlock()
	}
	return applied
}

// PeerStats is one peer's sync state for /debug/registry.
type PeerStats struct {
	Addr    string    `json:"addr"`
	Cursor  uint64    `json:"cursor"`
	Pulls   int64     `json:"pulls"`
	Applied int64     `json:"applied"`
	Fulls   int64     `json:"fulls"`
	Skips   int64     `json:"skips"`
	Errors  int64     `json:"errors"`
	LastOK  time.Time `json:"last_ok"`
	LastErr string    `json:"last_err,omitempty"`
}

// peerState is the live sync cursor for one peer.
type peerState struct {
	client *Client
	stats  PeerStats
}

// PeerSync periodically pulls sync deltas from each configured peer
// into Server. Construct with NewPeerSync, then Run it under the
// process context.
type PeerSync struct {
	server   *Server
	interval time.Duration
	logger   *slog.Logger

	mu    sync.Mutex
	peers []*peerState
}

// NewPeerSync wires a server to its peers. Interval <= 0 defaults to
// 5 s; timeout bounds each pull (0 = DefaultTimeout); logger may be nil.
func NewPeerSync(s *Server, peers []string, interval, timeout time.Duration, logger *slog.Logger) *PeerSync {
	if interval <= 0 {
		interval = 5 * time.Second
	}
	p := &PeerSync{server: s, interval: interval, logger: logger}
	for _, addr := range peers {
		p.peers = append(p.peers, &peerState{
			client: NewClient(addr, WithTimeout(timeout), WithPooledConn()),
			stats:  PeerStats{Addr: addr},
		})
	}
	return p
}

// Run pulls from every peer each interval until ctx is done. The first
// round runs immediately, so a freshly started replica converges
// without waiting out an interval.
func (p *PeerSync) Run(ctx context.Context) {
	p.SyncOnce(ctx)
	t := time.NewTicker(p.interval)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			p.mu.Lock()
			for _, ps := range p.peers {
				ps.client.Close()
			}
			p.mu.Unlock()
			return
		case <-t.C:
			p.SyncOnce(ctx)
		}
	}
}

// SyncOnce runs one pull round against every peer (exported so tests
// and operators can force convergence without waiting out the ticker).
func (p *PeerSync) SyncOnce(ctx context.Context) {
	p.mu.Lock()
	peers := append([]*peerState(nil), p.peers...)
	p.mu.Unlock()
	for _, ps := range peers {
		p.syncPeer(ctx, ps)
	}
}

func (p *PeerSync) syncPeer(ctx context.Context, ps *peerState) {
	p.mu.Lock()
	cursor := ps.stats.Cursor
	p.mu.Unlock()

	// Cheap idle probe: one EPOCH line. Unchanged epoch means nothing to
	// pull (the digest is reported for operators; epoch equality alone is
	// sufficient because a registry's epoch moves on every mutation).
	epoch, _, err := ps.client.Epoch(ctx)
	if err == nil && epoch == cursor && cursor != 0 {
		p.record(ps, func(st *PeerStats) { st.Skips++; st.LastOK = time.Now(); st.LastErr = "" })
		return
	}
	if err != nil {
		p.record(ps, func(st *PeerStats) { st.Errors++; st.LastErr = err.Error() })
		if p.logger != nil {
			p.logger.Warn("peer sync probe failed", "peer", ps.stats.Addr, "err", err)
		}
		return
	}

	d, err := ps.client.syncPull(ctx, cursor)
	if err != nil {
		p.record(ps, func(st *PeerStats) { st.Errors++; st.LastErr = err.Error() })
		if p.logger != nil {
			p.logger.Warn("peer sync pull failed", "peer", ps.stats.Addr, "err", err)
		}
		return
	}
	applied := p.server.Merge(d.Entries)
	p.record(ps, func(st *PeerStats) {
		st.Pulls++
		st.Applied += int64(applied)
		if d.Full {
			st.Fulls++
		}
		st.Cursor = d.Epoch
		st.LastOK = time.Now()
		st.LastErr = ""
	})
	if p.logger != nil && applied > 0 {
		p.logger.Debug("peer sync applied", "peer", ps.stats.Addr,
			"changes", len(d.Entries), "applied", applied, "cursor", d.Epoch, "full", d.Full)
	}
}

func (p *PeerSync) record(ps *peerState, f func(*PeerStats)) {
	p.mu.Lock()
	f(&ps.stats)
	p.mu.Unlock()
}

// Stats snapshots every peer's sync counters.
func (p *PeerSync) Stats() []PeerStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make([]PeerStats, 0, len(p.peers))
	for _, ps := range p.peers {
		out = append(out, ps.stats)
	}
	return out
}
