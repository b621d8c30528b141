// Liveness and readiness: named check registries behind /healthz and
// /readyz. Liveness means "the process is up and should not be
// restarted"; readiness means "send this daemon traffic" — a relay
// whose registry heartbeats are bouncing is alive but not ready, and
// conflating the two (as the old unconditional-200 /healthz did) turns
// every partial outage invisible.
package httpx

import (
	"fmt"
	"sort"
	"sync"
)

// Check probes one readiness condition; nil means healthy, an error
// names what is wrong. Checks run per request, so they report live
// state; they must be safe for concurrent use.
type Check func() error

// Ready is a named set of liveness and readiness checks. The zero
// value is ready to use (and reports healthy until checks are added).
type Ready struct {
	mu    sync.Mutex
	live  map[string]Check
	ready map[string]Check
}

// NewReady returns an empty check set.
func NewReady() *Ready { return &Ready{} }

// AddLive registers a liveness check (also consulted by readiness: a
// dead process is never ready).
func (r *Ready) AddLive(name string, c Check) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.live == nil {
		r.live = make(map[string]Check)
	}
	r.live[name] = c
}

// AddReady registers a readiness-only check.
func (r *Ready) AddReady(name string, c Check) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ready == nil {
		r.ready = make(map[string]Check)
	}
	r.ready[name] = c
}

// run evaluates a snapshot of the given check sets, returning the
// sorted names of failing checks with their errors.
func (r *Ready) run(includeReady bool) []string {
	r.mu.Lock()
	checks := make(map[string]Check, len(r.live)+len(r.ready))
	for n, c := range r.live {
		checks[n] = c
	}
	if includeReady {
		for n, c := range r.ready {
			checks[n] = c
		}
	}
	r.mu.Unlock()
	var failing []string
	for name, c := range checks {
		if err := c(); err != nil {
			failing = append(failing, fmt.Sprintf("%s: %v", name, err))
		}
	}
	sort.Strings(failing)
	return failing
}

// Live reports liveness: nil when every liveness check passes.
func (r *Ready) Live() error { return firstFailure(r.run(false)) }

// ReadyErr reports readiness: nil when every check (liveness and
// readiness) passes.
func (r *Ready) ReadyErr() error { return firstFailure(r.run(true)) }

func firstFailure(failing []string) error {
	if len(failing) == 0 {
		return nil
	}
	return fmt.Errorf("%d check(s) failing: %v", len(failing), failing)
}

// checkHandler serves 200 "ok" when no check fails and 503 with the
// failing check names otherwise.
func (r *Ready) checkHandler(includeReady bool) Handler {
	return func(*Request) (int, map[string]string, []byte) {
		failing := r.run(includeReady)
		if len(failing) == 0 {
			return 200, map[string]string{"content-type": "text/plain"}, []byte("ok\n")
		}
		body := ""
		for _, f := range failing {
			body += f + "\n"
		}
		return 503, map[string]string{"content-type": "text/plain"}, []byte(body)
	}
}

// LiveHandler serves the /healthz endpoint from the check set.
func (r *Ready) LiveHandler() Handler { return r.checkHandler(false) }

// ReadyHandler serves the /readyz endpoint from the check set.
func (r *Ready) ReadyHandler() Handler { return r.checkHandler(true) }

// NewReadyMux returns a mux with the standard introspection endpoints
// wired to real state: /healthz (liveness checks), /readyz (liveness +
// readiness checks), and /debug/vars (vars() as JSON). A nil ready
// reports unconditionally healthy, but daemons should pass their real
// check set.
func NewReadyMux(vars func() any, ready *Ready) *Mux {
	if ready == nil {
		ready = NewReady()
	}
	m := NewMux()
	m.Handle("/healthz", ready.LiveHandler())
	m.Handle("/readyz", ready.ReadyHandler())
	m.Handle("/debug/vars", JSONHandler(vars))
	return m
}
