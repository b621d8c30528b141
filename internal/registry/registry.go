// Package registry provides relay-node discovery: relays register
// themselves (with a TTL, refreshed by heartbeats) and clients list the
// live set. This is the operational glue the paper's deployment implies —
// "the set of nodes available to a client" from which candidate policies
// draw — turned into a service that holds up at registry scale (100k+
// heartbeating relays) instead of a single mutex-guarded map.
//
// Registration doubles as a health report: each heartbeat may carry the
// relay's self-measured health score (its HealthMonitor's view of its
// upstream paths), the registry records last-seen times, marks entries
// whose TTL lapses as down (holding them for a grace period before
// forgetting them), and LISTH serves the candidate set ranked
// healthiest-first — so a client probing only the top K exercises the
// paper's §V observation that a small, well-chosen candidate subset
// captures nearly all the attainable improvement.
//
// Three mechanisms carry the scale:
//
//   - The table is sharded: entries stripe across NumShards partitions by
//     FNV-1a hash of the relay name, each behind its own mutex, so a
//     REGISTER storm stops serializing on one lock and full-table scans
//     (LISTH at 100k entries) hold only one shard at a time. Each shard
//     keeps a change watermark and a next-expiry time: a delta poll walks
//     only shards changed since its cursor or holding a lapsed entry.
//
//   - Mutations are epoch-versioned: every change bumps a registry-wide
//     epoch, and LISTD serves only the entries changed since the epoch a
//     client last saw — steady-state clients keep a cached ranked set
//     (RankedSet) and re-pull deltas instead of full lists. Entries carry
//     two stamps: ChangeEpoch moves on material changes (address, health,
//     up/down state) and feeds client deltas; SeenEpoch moves on every
//     refresh and feeds peer anti-entropy, so a heartbeat that changes
//     nothing costs LISTD clients zero lines but still tells peers the
//     relay is alive.
//
//   - Registries peer: PeerSync periodically pulls SYNCD deltas from
//     each configured peer and merges them last-writer-wins on LastSeen,
//     so discovery survives a registryd loss and a heartbeat reaching
//     either peer converges on both.
//
// The wire protocol is line-based over TCP; a session may carry any
// number of commands (clients can hold a pooled connection open):
//
//	REGISTER <name> <addr> <ttl-seconds> [<health 0..1|-1> [<metrics-addr>]]\n -> OK\n
//	LIST\n                -> <name> <addr>\n ... .\n
//	LISTH [<k>]\n         -> <name> <addr> <health> <up|down> [<metrics-addr>]\n ... .\n
//	LISTD <epoch> [<k>]\n -> EPOCH <epoch> [full]\n
//	                         + <name> <addr> <health> <up|down> [<metrics-addr>]\n
//	                         - <name>\n ... .\n
//	EPOCH\n               -> EPOCH <epoch> <digest>\n
//	SYNCD <epoch>\n       -> EPOCH <epoch> [full]\n
//	                         + <name> <addr> <health> <lastseen-ns> <ttl-ns> [<metrics-addr>]\n
//	                         - <name> <lastseen-ns>\n ... .\n
//
// Names and addresses must be token-shaped (no whitespace). The
// optional trailing metrics-addr token is the relay's observability
// endpoint (its daemon HTTP address) — the fleet aggregator scrapes it;
// six-field REGISTER accepts health -1 (unreported) so a relay can
// advertise a metrics address without a score. Response lines omit the
// token when the entry never reported one, keeping old clients'
// field counts intact. LISTH
// returns entries ranked by health (best first, unreported health ranks
// below any reported score, down-marked entries rank after every live
// one and say so in the state column), truncated to k when given.
// LISTD's epoch is the client's last-synced epoch (0 for a first pull);
// the response replays adds/updates (+) and deletes (-) since then, or —
// when the epoch is unknown, from a restarted server, or older than the
// tombstone horizon — a full snapshot tagged "full". SYNCD is LISTD for
// peers: keyed by SeenEpoch and carrying the absolute LastSeen/TTL a
// last-writer-wins merge needs.
package registry

import (
	"cmp"
	"errors"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/obs"
)

// Errors returned by the registry client (all reachable through
// errors.Is from Client method returns).
var (
	// ErrBadEntry reports a malformed response line from the server.
	ErrBadEntry = errors.New("registry: malformed entry")
	// ErrRejected reports a request the server refused (ERR response).
	ErrRejected = errors.New("registry: request rejected")
	// ErrBadName reports a name or address that is not a non-empty token.
	ErrBadName = errors.New("registry: name and addr must be non-empty tokens")
	// ErrBadTTL reports a non-positive registration TTL.
	ErrBadTTL = errors.New("registry: ttl must be positive")
	// ErrUnavailable reports that the registry and every fallback peer
	// failed; it wraps the last transport error.
	ErrUnavailable = errors.New("registry: no endpoint reachable")
	errShortRead   = errors.New("registry: short response")
)

// HealthUnreported marks an entry whose registrant never sent a health
// score; it ranks below any reported score.
const HealthUnreported = -1

// downGraceFactor scales the TTL into the post-expiry grace period: an
// entry whose TTL lapses is marked down and held for TTL×downGraceFactor
// so operators (and LISTH) can see the outage before the registry
// forgets the relay existed.
const downGraceFactor = 2

// DefaultShards is the table partition count when Server.NumShards is
// zero: enough stripes that a heartbeat storm's lock waits vanish, few
// enough that per-shard scans stay cache-friendly.
const DefaultShards = 32

// DefaultTimeout bounds one wire command (server side) and one request
// (client side) when no explicit timeout is configured.
const DefaultTimeout = 10 * time.Second

// Entry is one registered relay.
type Entry struct {
	Name string
	Addr string
	// Expires is when the entry lapses unless refreshed.
	Expires time.Time
	// LastSeen is when the last REGISTER for this name arrived (or, on a
	// peered registry, when it arrived at whichever peer saw it last).
	LastSeen time.Time
	// TTL is the registration's lifetime, as most recently reported.
	TTL time.Duration
	// Health is the registrant's self-reported health score in [0, 1],
	// or HealthUnreported.
	Health float64
	// Down marks an entry whose TTL lapsed without a refresh; down
	// entries are excluded from LIST/ListRanked, served with state
	// "down" by LISTH/LISTD during the grace period, and dropped
	// entirely once it passes.
	Down bool
	// MetricsAddr is the registrant's observability endpoint (daemon
	// HTTP address serving /metrics and /debug/*), "" when unreported.
	// The fleet aggregator scrapes it.
	MetricsAddr string
	// ChangeEpoch is the registry epoch of the entry's last material
	// change (insert, address, health, metrics address, or up/down
	// transition) — the stamp LISTD deltas filter on.
	ChangeEpoch uint64

	// seenEpoch is the epoch of the entry's last refresh of any kind
	// (material or pure heartbeat) — the stamp peer SYNCD filters on.
	seenEpoch uint64
}

// Server is the registry service. The zero value is ready to use; set
// the exported fields only before the first call.
type Server struct {
	// Clock returns the current time (nil means time.Now); injectable
	// for expiry tests.
	Clock func() time.Time
	// NumShards is the table partition count (0 = DefaultShards). Read
	// on first use; changes afterwards are ignored.
	NumShards int
	// Timeout bounds each wire command: the per-command connection
	// deadline (0 = DefaultTimeout).
	Timeout time.Duration

	// Registrations counts accepted REGISTER commands received over the
	// wire (in-process Register calls are not counted).
	Registrations atomic.Int64
	// Lists counts LIST and LISTH commands served over the wire.
	Lists atomic.Int64
	// DeltaLists counts LISTD commands served over the wire.
	DeltaLists atomic.Int64
	// FullDeltas counts LISTD/SYNCD responses that had to fall back to a
	// full snapshot (unknown or pre-horizon epoch).
	FullDeltas atomic.Int64
	// Syncs counts SYNCD commands served over the wire (peer pulls).
	Syncs atomic.Int64
	// Downs counts entries marked down by TTL expiry.
	Downs atomic.Int64

	// epoch is the registry-wide mutation counter; every change claims
	// the next value while holding the owning shard's lock, so a reader
	// that snapshots the epoch and then visits the shards cannot miss a
	// change at or below its snapshot.
	epoch atomic.Uint64
	// deltaFloor is the highest epoch of any pruned tombstone: a delta
	// request from below it could miss a delete, so it gets a full
	// snapshot instead.
	deltaFloor atomic.Uint64

	initOnce sync.Once
	shards   []*shard
	walks    atomic.Int64 // walkShard calls: tests show a quiet poll makes none

	lat obs.LatencyRecorder
}

// WriteProm appends the table's own families — what registryd serves
// on /metrics ahead of the peer-sync, fleet and runtime views.
func (s *Server) WriteProm(p *obs.Prom) {
	st := s.Stats()
	p.Counter("registry_registrations_total", "Accepted REGISTER commands.", float64(s.Registrations.Load()))
	p.Counter("registry_lists_total", "LIST and LISTH commands served.", float64(s.Lists.Load()))
	p.Counter("registry_delta_lists_total", "LISTD commands served.", float64(s.DeltaLists.Load()))
	p.Counter("registry_full_deltas_total", "Delta responses that fell back to a full snapshot.", float64(s.FullDeltas.Load()))
	p.Counter("registry_syncs_total", "SYNCD peer pulls served.", float64(s.Syncs.Load()))
	p.Counter("registry_downs_total", "Relays marked down after TTL lapse.", float64(s.Downs.Load()))
	p.Gauge("registry_live_relays", "Relays currently registered and unexpired.", float64(st.Live))
	p.Gauge("registry_down_relays", "Relays inside their post-expiry grace window.", float64(st.Down))
	p.Gauge("registry_epoch", "Current registry mutation epoch.", float64(st.Epoch))
	p.Gauge("registry_shards", "Table lock partitions.", float64(st.Shards))
	p.Histogram("registry_command_latency_seconds", "Wire-command handling times.", s.lat.Snapshot())
}

func (s *Server) now() time.Time {
	if s.Clock != nil {
		return s.Clock()
	}
	return time.Now()
}

// init lays out the shard table on first use.
func (s *Server) init() {
	s.initOnce.Do(func() {
		n := s.NumShards
		if n <= 0 {
			n = DefaultShards
		}
		s.shards = make([]*shard, n)
		for i := range s.shards {
			s.shards[i] = newShard()
		}
	})
}

// Epoch returns the current registry epoch: the stamp of the most
// recent mutation (0 before any).
func (s *Server) Epoch() uint64 { return s.epoch.Load() }

// Register inserts or refreshes an entry with no health report.
func (s *Server) Register(name, addr string, ttl time.Duration) error {
	return s.RegisterHealth(name, addr, ttl, HealthUnreported)
}

// RegisterHealth inserts or refreshes an entry carrying the
// registrant's self-reported health score. A refresh clears any down
// mark — the relay is back. Only material changes (a new entry, a new
// address, health value, or metrics address, an up/down transition)
// advance the entry's ChangeEpoch; a pure heartbeat refresh advances
// SeenEpoch alone, so it is invisible to LISTD clients but still
// propagates through peer sync.
func (s *Server) RegisterHealth(name, addr string, ttl time.Duration, health float64) error {
	return s.RegisterFull(name, addr, ttl, health, "")
}

// RegisterFull is RegisterHealth plus the registrant's observability
// endpoint (empty when it serves none).
func (s *Server) RegisterFull(name, addr string, ttl time.Duration, health float64, metricsAddr string) error {
	if !validTokens(name, addr, metricsAddr) {
		return ErrBadName
	}
	if ttl <= 0 {
		return ErrBadTTL
	}
	if health != HealthUnreported {
		if health < 0 {
			health = 0
		}
		if health > 1 {
			health = 1
		}
	}
	s.init()
	now := s.now()
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	delete(sh.tombs, name)
	old, existed := sh.entries[name]
	e := Entry{
		Name: name, Addr: addr,
		Expires: now.Add(ttl), LastSeen: now, TTL: ttl,
		Health: health, MetricsAddr: metricsAddr,
	}
	// A pure refresh moves nothing a client sees: it keeps its ChangeEpoch.
	material := !existed || old.Addr != addr || old.Health != health ||
		old.MetricsAddr != metricsAddr || old.Down
	e.seenEpoch = s.stamp(sh, material, e.Expires)
	e.ChangeEpoch = old.ChangeEpoch
	if material {
		e.ChangeEpoch = e.seenEpoch
	}
	sh.entries[name] = e
	return nil
}

// validTokens reports whether name and addr are non-empty and no token
// (the optional metrics address included) contains whitespace.
func validTokens(name, addr, metricsAddr string) bool {
	const space = " \t\r\n"
	return name != "" && addr != "" && !strings.ContainsAny(name, space) &&
		!strings.ContainsAny(addr, space) && !strings.ContainsAny(metricsAddr, space)
}

// Remove deletes an entry by name (idempotent), leaving a tombstone so
// delta clients and peers learn about the delete.
func (s *Server) Remove(name string) {
	s.init()
	now := s.now()
	sh := s.shardFor(name)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	if _, ok := sh.entries[name]; !ok {
		return
	}
	delete(sh.entries, name)
	keep := now.Add(tombstoneKeep)
	sh.tombs[name] = tombstone{Epoch: s.stamp(sh, true, keep), LastSeen: now, Keep: keep}
}

// List returns the live entries sorted by name. Entries whose TTL
// lapsed are excluded (marked down, then forgotten after the grace).
func (s *Server) List() []Entry {
	out := s.collect(0, true)
	sortByName(out)
	return out
}

// ListAll returns every tracked entry — live and down — sorted by name,
// for the /debug/vars view.
func (s *Server) ListAll() []Entry {
	out := s.collect(0, false)
	sortByName(out)
	return out
}

// ListRanked returns up to k live entries ranked healthiest-first:
// reported health descending (unreported ranks last), ties by name.
// k <= 0 means all.
func (s *Server) ListRanked(k int) []Entry {
	out := s.collect(k, true)
	sortRanked(out)
	return out
}

// rankedAll is the LISTH/LISTD-full view: live entries ranked
// healthiest-first, then down-marked entries (still inside their grace)
// ranked after every live one — operators see outages from the CLI
// instead of a hard-coded "up" column.
func (s *Server) rankedAll(k int) []Entry {
	out := s.collect(k, false)
	sortRanked(out)
	return out
}

// collect gathers the entries (only the live ones if liveOnly) across
// all shards, in no order. With k > 0 it retains only the k that rank
// first, in a bounded heap with the worst retained entry at the root,
// so a top-10 of a 100k table neither materialises nor sorts the table.
func (s *Server) collect(k int, liveOnly bool) []Entry {
	var out []Entry
	s.scan(nil, func(e Entry) {
		switch {
		case liveOnly && e.Down:
		case k <= 0 || len(out) < k:
			out = append(out, e)
			if len(out) == k { // full: from here on a heap, ordered once
				for i := k/2 - 1; i >= 0; i-- {
					siftDown(out, i)
				}
			}
		case rankCmp(&e, &out[0]) < 0:
			out[0] = e
			siftDown(out, 0)
		}
	}, nil)
	return out
}

// siftDown restores below index i the heap order in which no entry
// ranks after its parent, so that h[0] is the one that ranks last.
func siftDown(h []Entry, i int) {
	for {
		c := 2*i + 1
		if c+1 < len(h) && rankCmp(&h[c], &h[c+1]) < 0 {
			c++ // the child that ranks later
		}
		if c >= len(h) || rankCmp(&h[i], &h[c]) >= 0 {
			return
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
}

// Sweep applies TTL expiry across the table without collecting entries:
// lapsed entries are marked down, down entries past their grace become
// tombstones, and expired tombstones are pruned (raising the delta
// floor). Every read applies the expiry that is due in the shards it
// visits; long-running servers may also call Sweep from a ticker so
// epochs advance even when nobody is reading.
func (s *Server) Sweep() {
	s.scan(func(*shard) bool { return true }, nil, nil)
}

func sortByName(out []Entry) {
	slices.SortFunc(out, func(a, b Entry) int { return cmp.Compare(a.Name, b.Name) })
}

// sortRanked orders by rankCmp: live before down, health descending, name.
func sortRanked(out []Entry) {
	slices.SortFunc(out, func(a, b Entry) int { return rankCmp(&a, &b) })
}

func rankCmp(a, b *Entry) int {
	if a.Down != b.Down {
		if a.Down {
			return 1
		}
		return -1
	}
	if c := cmp.Compare(b.Health, a.Health); c != 0 {
		return c
	}
	return cmp.Compare(a.Name, b.Name)
}

func truncate(out []Entry, k int) []Entry {
	if k > 0 && k < len(out) {
		return out[:k]
	}
	return out
}

// formatHealth renders a health score for the wire; appendHealth does
// the same into a caller's buffer.
func formatHealth(h float64) string { return strconv.FormatFloat(h, 'g', 6, 64) }

func appendHealth(dst []byte, h float64) []byte { return strconv.AppendFloat(dst, h, 'g', 6, 64) }

// stateWord renders the entry's state column.
func stateWord(down bool) string {
	if down {
		return "down"
	}
	return "up"
}
