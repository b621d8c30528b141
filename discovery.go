package repro

// Relay discovery, re-exported from internal/registry: the options-first
// registry client, the cached delta-synced ranked set, and a one-call
// helper that turns a registry into the candidate map a RealTransport
// wants. The registry side (registryd) shards its table and serves
// epoch-keyed deltas, so these helpers hold up against very large relay
// fleets; point the client at every registryd the relays heartbeat and
// discovery survives losing one.
//
//	rc := repro.NewRegistryClient("10.0.0.5:8070",
//	    repro.WithRegistryTimeout(3*time.Second),
//	    repro.WithRegistryFallbackPeers("10.0.0.6:8070"))
//	defer rc.Close()
//	relays, err := repro.DiscoverRelays(ctx, rc, 10)

import (
	"context"
	"time"

	"repro/internal/registry"
)

// Registry discovery types, re-exported for downstream users.
type (
	// RegistryClient talks the registry wire protocol: context-aware
	// Register/ListRanked/ListDelta/StartHeartbeat with configurable
	// timeouts, retries, connection pooling, and fallback peers.
	RegistryClient = registry.Client
	// RegistryClientOption configures NewRegistryClient.
	RegistryClientOption = registry.ClientOption
	// RegistryEntry is one registered relay (name, address, health
	// score, up/down state).
	RegistryEntry = registry.Entry
	// RegistryRankedSet is a client-side mirror of the registry kept
	// fresh with epoch-keyed deltas; Top ranks locally without re-pulling
	// the full table.
	RegistryRankedSet = registry.RankedSet
	// RegistryHeartbeatState is the observable status of a background
	// registration heartbeat.
	RegistryHeartbeatState = registry.HeartbeatState
)

// Registry client errors, re-exported for errors.Is checks.
var (
	// ErrRegistryUnavailable reports that the registry and every
	// fallback peer failed.
	ErrRegistryUnavailable = registry.ErrUnavailable
	// ErrRegistryRejected reports a request the registry refused.
	ErrRegistryRejected = registry.ErrRejected
)

// NewRegistryClient returns a client for the registry at addr.
func NewRegistryClient(addr string, opts ...RegistryClientOption) *RegistryClient {
	return registry.NewClient(addr, opts...)
}

// NewRegistryRankedSet returns an empty delta-synced mirror; the first
// Refresh performs a full sync.
func NewRegistryRankedSet() *RegistryRankedSet { return registry.NewRankedSet() }

// WithRegistryTimeout bounds each registry request.
func WithRegistryTimeout(d time.Duration) RegistryClientOption { return registry.WithTimeout(d) }

// WithRegistryRetry retries transport failures up to n more times with
// exponential backoff.
func WithRegistryRetry(n int, backoff time.Duration) RegistryClientOption {
	return registry.WithRetry(n, backoff)
}

// WithRegistryPooledConn keeps one connection open across requests.
func WithRegistryPooledConn() RegistryClientOption { return registry.WithPooledConn() }

// WithRegistryFallbackPeers adds peer registries tried when the primary
// is unreachable.
func WithRegistryFallbackPeers(addrs ...string) RegistryClientOption {
	return registry.WithFallbackPeers(addrs...)
}

// DiscoverRelays asks the registry for the k healthiest live relays
// (k <= 0 means all) and returns them as the name -> addr map a
// RealTransport's Relays field wants. Entries the registry has marked
// down are excluded — they are served for visibility, not for routing.
func DiscoverRelays(ctx context.Context, c *RegistryClient, k int) (map[string]string, error) {
	entries, err := c.ListRanked(ctx, k)
	if err != nil {
		return nil, err
	}
	out := make(map[string]string, len(entries))
	for _, e := range entries {
		if !e.Down {
			out[e.Name] = e.Addr
		}
	}
	return out, nil
}
