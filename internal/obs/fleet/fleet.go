// Package fleet is the aggregation half of the observability plane:
// a puller that walks the registry's view of the relay fleet, scrapes
// every live relay's /metrics and /debug/paths on a cadence, and merges
// the results into one fleet snapshot — per-relay freshness and
// staleness, fleet-wide merged latency histograms, and the top-K worst
// paths anywhere in the fleet.
//
// The paper's §V analysis ranks indirect paths from aggregate
// utilization observed across the deployment; related overlay-routing
// work makes its routing decisions from network-wide state. Every
// daemon in this repo already measures itself — this package is the
// single place those per-process views become a whole-fleet answer.
// registryd hosts it (the registry already knows who the relays are
// and where their metrics endpoints live, via the REGISTER metrics-addr
// extension), serves the snapshot on /debug/fleet, and re-exports the
// merged families as fleet_* on its own /metrics.
package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"sort"
	"sync"
	"time"

	"repro/internal/httpx"
	"repro/internal/obs"
	"repro/internal/registry"
)

// Target is one scrapeable fleet member, as the registry sees it.
type Target struct {
	Name        string
	Addr        string
	MetricsAddr string
	Health      float64
	Down        bool
}

// Source enumerates the current fleet. Implementations must be safe
// for concurrent use (both adapters below are).
type Source interface {
	Targets() []Target
}

// serverSource adapts an in-process registry table.
type serverSource struct{ s *registry.Server }

func (ss serverSource) Targets() []Target { return entriesToTargets(ss.s.ListAll()) }

// ServerSource walks an in-process registry.Server — the registryd
// deployment, where the aggregator and the table share a process.
func ServerSource(s *registry.Server) Source { return serverSource{s} }

func entriesToTargets(entries []registry.Entry) []Target {
	out := make([]Target, 0, len(entries))
	for _, e := range entries {
		out = append(out, Target{
			Name: e.Name, Addr: e.Addr, MetricsAddr: e.MetricsAddr,
			Health: e.Health, Down: e.Down,
		})
	}
	return out
}

// Config tunes an Aggregator.
type Config struct {
	// Source enumerates the fleet each round. Required.
	Source Source
	// Every is the scrape cadence (default 5s).
	Every time.Duration
	// Timeout bounds one relay's scrape (default min(Every, 5s)).
	Timeout time.Duration
	// StaleAfter is how long after its last successful scrape a relay
	// is reported stale (default 3×Every) — one slow scrape is noise,
	// three missed cadences is an outage.
	StaleAfter time.Duration
	// TopK bounds the worst-paths list (default 10).
	TopK int
	// Dial overrides the dialer (tests, simulated nets); nil means
	// net.Dialer.
	Dial func(ctx context.Context, network, addr string) (net.Conn, error)
	// Clock overrides time.Now (staleness tests).
	Clock func() time.Time
}

func (cfg Config) withDefaults() Config {
	if cfg.Every <= 0 {
		cfg.Every = 5 * time.Second
	}
	if cfg.Timeout <= 0 {
		cfg.Timeout = cfg.Every
		if cfg.Timeout > 5*time.Second {
			cfg.Timeout = 5 * time.Second
		}
	}
	if cfg.StaleAfter <= 0 {
		cfg.StaleAfter = 3 * cfg.Every
	}
	if cfg.TopK <= 0 {
		cfg.TopK = 10
	}
	if cfg.Clock == nil {
		cfg.Clock = time.Now
	}
	return cfg
}

// RelayStatus is one relay's slice of the fleet snapshot.
type RelayStatus struct {
	Name        string  `json:"name"`
	Addr        string  `json:"addr"`
	MetricsAddr string  `json:"metrics_addr,omitempty"`
	Health      float64 `json:"health"` // registry-reported, -1 unreported
	Down        bool    `json:"down"`   // registry's TTL-lapse view

	// Scraped is whether this relay has ever been scraped successfully.
	Scraped bool `json:"scraped"`
	// AgeSeconds is how long ago the last successful scrape was, -1
	// before any.
	AgeSeconds float64 `json:"age_s"`
	// Stale marks a relay whose last successful scrape is older than
	// StaleAfter (or that has never answered one).
	Stale bool `json:"stale"`
	// Err is the last scrape error, "" after a success.
	Err string `json:"err,omitempty"`

	Requests     float64 `json:"requests"`
	BytesRelayed float64 `json:"bytes_relayed"`

	ForwardLatency obs.HistogramSnapshot `json:"forward_latency,omitempty"`
	Paths          []obs.PathHealth      `json:"paths,omitempty"`

	lastOK time.Time
}

// WorstPath is one entry of the fleet-wide worst-paths list: a path as
// one relay's health monitor sees it, attributed to that relay.
type WorstPath struct {
	Relay string         `json:"relay"`
	Path  obs.PathHealth `json:"path"`
}

// Snapshot is the whole fleet at one instant — the /debug/fleet
// payload.
type Snapshot struct {
	Time       time.Time     `json:"time"`
	Relays     []RelayStatus `json:"relays"`
	Live       int           `json:"live"`
	Stale      int           `json:"stale"`
	Scrapes    uint64        `json:"scrapes"`
	ScrapeErrs uint64        `json:"scrape_errors"`

	// Requests and BytesRelayed sum the fresh relays' counters.
	Requests     float64 `json:"requests"`
	BytesRelayed float64 `json:"bytes_relayed"`

	// ForwardLatency merges every fresh relay's forward-latency
	// histogram (scrape-resolution geometry).
	ForwardLatency obs.HistogramSnapshot `json:"forward_latency"`

	// WorstPaths ranks the lowest-scoring paths across the whole fleet,
	// worst first, at most TopK.
	WorstPaths []WorstPath `json:"worst_paths,omitempty"`
}

// Aggregator scrapes the fleet on a cadence and serves merged
// snapshots. Safe for concurrent use.
type Aggregator struct {
	cfg Config

	mu         sync.Mutex
	relays     map[string]*RelayStatus
	scrapes    uint64
	scrapeErrs uint64
}

// New returns an aggregator over cfg.Source. Call Run (or ScrapeOnce)
// to populate it.
func New(cfg Config) *Aggregator {
	return &Aggregator{cfg: cfg.withDefaults(), relays: make(map[string]*RelayStatus)}
}

// Every returns the configured scrape cadence.
func (a *Aggregator) Every() time.Duration { return a.cfg.Every }

// Run scrapes immediately and then every cadence until ctx is done.
func (a *Aggregator) Run(ctx context.Context) {
	a.ScrapeOnce(ctx)
	t := time.NewTicker(a.cfg.Every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			a.ScrapeOnce(ctx)
		}
	}
}

// ScrapeOnce walks the current fleet and scrapes every member with a
// metrics address, concurrently. Members without one are tracked from
// registry state alone (permanently stale: nothing to scrape).
func (a *Aggregator) ScrapeOnce(ctx context.Context) {
	targets := a.cfg.Source.Targets()
	results := make([]scrapeResult, len(targets))
	var wg sync.WaitGroup
	for i, t := range targets {
		if t.MetricsAddr == "" {
			continue
		}
		wg.Add(1)
		go func(i int, t Target) {
			defer wg.Done()
			results[i] = a.scrape(ctx, t)
		}(i, t)
	}
	wg.Wait()

	now := a.cfg.Clock()
	a.mu.Lock()
	defer a.mu.Unlock()
	for i, t := range targets {
		st := a.relays[t.Name]
		if st == nil {
			st = &RelayStatus{AgeSeconds: -1}
			a.relays[t.Name] = st
		}
		st.Name, st.Addr, st.MetricsAddr = t.Name, t.Addr, t.MetricsAddr
		st.Health, st.Down = t.Health, t.Down
		if t.MetricsAddr == "" {
			continue
		}
		r := results[i]
		a.scrapes++
		if r.err != nil {
			a.scrapeErrs++
			st.Err = r.err.Error()
			continue
		}
		st.Scraped = true
		st.Err = ""
		st.lastOK = now
		st.Requests = r.requests
		st.BytesRelayed = r.bytes
		st.ForwardLatency = r.latency
		st.Paths = r.paths
	}
}

type scrapeResult struct {
	err      error
	requests float64
	bytes    float64
	latency  obs.HistogramSnapshot
	paths    []obs.PathHealth
}

// scrape pulls one relay's /metrics and /debug/paths.
func (a *Aggregator) scrape(ctx context.Context, t Target) scrapeResult {
	status, _, body, err := httpx.Get(ctx, a.cfg.Dial, t.MetricsAddr, "/metrics", nil, a.cfg.Timeout)
	if err != nil {
		return scrapeResult{err: fmt.Errorf("metrics: %w", err)}
	}
	if status != 200 {
		return scrapeResult{err: fmt.Errorf("metrics: status %d", status)}
	}
	fams, err := obs.ParseProm(body)
	if err != nil {
		return scrapeResult{err: fmt.Errorf("metrics: %w", err)}
	}
	var res scrapeResult
	if f := fams["relay_requests_total"]; f != nil {
		res.requests, _ = f.Value()
	}
	if f := fams["relay_bytes_relayed_total"]; f != nil {
		res.bytes, _ = f.Value()
	}
	if f := fams["relay_forward_latency_seconds"]; f != nil {
		if h, err := f.Histogram(); err == nil {
			res.latency = h
		}
	}

	status, _, body, err = httpx.Get(ctx, a.cfg.Dial, t.MetricsAddr, "/debug/paths", nil, a.cfg.Timeout)
	switch {
	case err != nil:
		return scrapeResult{err: fmt.Errorf("paths: %w", err)}
	case status == 404:
		// A relay without a health monitor has no path view; the scrape
		// still counts as fresh.
	case status != 200:
		return scrapeResult{err: fmt.Errorf("paths: status %d", status)}
	default:
		var hs obs.HealthSnapshot
		if err := json.Unmarshal(body, &hs); err != nil {
			return scrapeResult{err: fmt.Errorf("paths: %w", err)}
		}
		res.paths = hs.Paths
	}
	return res
}

// Snapshot merges the current per-relay state into one fleet view.
func (a *Aggregator) Snapshot() Snapshot {
	now := a.cfg.Clock()
	a.mu.Lock()
	defer a.mu.Unlock()

	snap := Snapshot{Time: now, Scrapes: a.scrapes, ScrapeErrs: a.scrapeErrs}
	var worst []WorstPath
	for _, st := range a.relays {
		rs := *st // copy; the snapshot must not alias live state
		if rs.Scraped {
			rs.AgeSeconds = now.Sub(st.lastOK).Seconds()
			rs.Stale = now.Sub(st.lastOK) > a.cfg.StaleAfter
		} else {
			rs.AgeSeconds = -1
			rs.Stale = true
		}
		if rs.Stale {
			snap.Stale++
		} else {
			snap.Live++
			snap.Requests += rs.Requests
			snap.BytesRelayed += rs.BytesRelayed
			if rs.ForwardLatency.Total > 0 || len(rs.ForwardLatency.Bins) > 0 {
				// Geometry mismatches only arise across renderer versions;
				// skipping the odd one out beats poisoning the merge.
				_ = obs.MergeHistogramSnapshots(&snap.ForwardLatency, rs.ForwardLatency)
			}
			for _, ph := range rs.Paths {
				worst = append(worst, WorstPath{Relay: rs.Name, Path: ph})
			}
		}
		snap.Relays = append(snap.Relays, rs)
	}
	sort.Slice(snap.Relays, func(i, j int) bool { return snap.Relays[i].Name < snap.Relays[j].Name })
	sort.Slice(worst, func(i, j int) bool {
		if worst[i].Path.Score != worst[j].Path.Score {
			return worst[i].Path.Score < worst[j].Path.Score
		}
		if worst[i].Relay != worst[j].Relay {
			return worst[i].Relay < worst[j].Relay
		}
		return worst[i].Path.Path < worst[j].Path.Path
	})
	if len(worst) > a.cfg.TopK {
		worst = worst[:a.cfg.TopK]
	}
	snap.WorstPaths = worst
	return snap
}

// WriteProm renders the fleet snapshot as fleet_* families, appended to
// registryd's own /metrics exposition.
func (s Snapshot) WriteProm(p *obs.Prom) {
	p.Gauge("fleet_relays", "Relays the aggregator tracks.", float64(len(s.Relays)))
	p.Gauge("fleet_relays_live", "Tracked relays with a fresh scrape.", float64(s.Live))
	p.Gauge("fleet_relays_stale", "Tracked relays whose last scrape is stale (or that never answered).", float64(s.Stale))
	p.Counter("fleet_scrapes_total", "Scrape attempts across the fleet.", float64(s.Scrapes))
	p.Counter("fleet_scrape_errors_total", "Failed scrape attempts.", float64(s.ScrapeErrs))
	p.Counter("fleet_requests_total", "Requests handled across fresh relays.", s.Requests)
	p.Counter("fleet_bytes_relayed_total", "Bytes relayed across fresh relays.", s.BytesRelayed)
	if len(s.Relays) > 0 {
		health := make(map[string]float64, len(s.Relays))
		stale := make(map[string]float64, len(s.Relays))
		for _, rs := range s.Relays {
			health[rs.Name] = rs.Health
			if rs.Stale {
				stale[rs.Name] = 1
			} else {
				stale[rs.Name] = 0
			}
		}
		p.LabeledGauge("fleet_relay_health", "Registry-reported relay health (-1 unreported).", "relay", health)
		p.LabeledGauge("fleet_relay_stale", "Whether the relay's last scrape is stale.", "relay", stale)
	}
	p.Histogram("fleet_forward_latency_seconds", "Forward latencies merged across fresh relays.", s.ForwardLatency)
}
