// Package httpsim provides the simulated HTTP layer of the study: origin
// servers holding objects of known size, range-request semantics (the
// subset of HTTP the paper's mechanism needs), and relay forwarding via
// intermediate nodes. Transfers become fluid flows in the simnet network
// with TCP behaviour imposed by tcpmodel, and World implements the five
// methods of core.Transport so the selection engine runs unmodified on top
// of it — the same engine the real stack runs, which is what makes the
// campaigns' numbers measurements of the deployed selector. A context is
// honoured when a transfer starts and never after (see World.start).
package httpsim

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/simnet"
	"repro/internal/tcpmodel"
	"repro/internal/topo"
)

// Transfer errors.
var (
	ErrNoSuchServer       = errors.New("httpsim: no such server")
	ErrNoSuchIntermediate = errors.New("httpsim: no such intermediate")
	ErrNoSuchObject       = errors.New("httpsim: no such object")
	ErrBadRange           = errors.New("httpsim: range not satisfiable")
)

// maxVirtualWait bounds how long Wait will advance virtual time before
// concluding the simulation is wedged (a bug, since every flow progresses
// at a positive floored rate).
const maxVirtualWait = 1e7 // seconds

// Server is a simulated origin holding ranged objects.
type Server struct {
	Node    *topo.Node
	objects map[string]int64
}

// Put registers an object of the given size on the server.
func (s *Server) Put(name string, size int64) {
	if size < 0 {
		panic("httpsim: negative object size")
	}
	s.objects[name] = size
}

// Size returns an object's size and whether it exists.
func (s *Server) Size(name string) (int64, bool) {
	sz, ok := s.objects[name]
	return sz, ok
}

// World binds one client's network instance to a set of origin servers and
// candidate intermediates, and moves object ranges between them. It
// implements core.Transport over virtual time.
type World struct {
	Inst *topo.Instance

	// SetupRTTs is the connection-establishment cost charged before the
	// first byte of every transfer, in round-trip times (TCP handshake +
	// HTTP request ≈ 1.5 RTT). Zero disables it. Every transfer opens a
	// fresh connection, as in the paper's measurement framework.
	SetupRTTs float64

	servers map[string]*Server
	inters  map[string]*topo.Node
}

// NewWorld creates a world for the instance's client. The servers and
// intermediates must be the ones the instance was built with.
func NewWorld(inst *topo.Instance, servers, inters []*topo.Node) *World {
	w := &World{
		Inst:    inst,
		servers: make(map[string]*Server, len(servers)),
		inters:  make(map[string]*topo.Node, len(inters)),
	}
	for _, sv := range servers {
		w.servers[sv.Name] = &Server{Node: sv, objects: make(map[string]int64)}
	}
	for _, in := range inters {
		w.inters[in.Name] = in
	}
	return w
}

// Server returns the named origin server, or nil.
func (w *World) Server(name string) *Server { return w.servers[name] }

// Put registers an object on the named server, creating nothing: the
// server must exist.
func (w *World) Put(server, name string, size int64) {
	s := w.servers[server]
	if s == nil {
		panic("httpsim: Put on unknown server " + server)
	}
	s.Put(name, size)
}

// Now returns the current virtual time.
func (w *World) Now() float64 { return w.Inst.Net.Engine().Now() }

// handle is an in-flight simulated transfer.
type handle struct {
	res  core.FetchResult
	done bool
}

func (h *handle) Done() bool               { return h.done }
func (h *handle) Result() core.FetchResult { return h.res }

func (w *World) failed(obj core.Object, path core.Path, off, n int64, err error) core.Handle {
	now := w.Now()
	return &handle{
		done: true,
		res: core.FetchResult{
			Path: path, Offset: off, Bytes: n,
			Start: now, End: now, Err: err,
		},
	}
}

// Start begins a cold range transfer of [off, off+n) of obj over path,
// under no context: what a driver's control process uses.
func (w *World) Start(obj core.Object, path core.Path, off, n int64) core.Handle {
	return w.start(context.Background(), obj, path, off, n, false)
}

// StartCtx begins a range transfer of [off, off+n) of obj over path on a
// fresh connection. See start for how the request and ctx are treated.
func (w *World) StartCtx(ctx context.Context, obj core.Object, path core.Path, off, n int64) core.Handle {
	return w.start(ctx, obj, path, off, n, false)
}

// StartWarmCtx begins a transfer that continues an established
// connection: no setup delay and no slow-start ramp (the congestion
// window is already open).
func (w *World) StartWarmCtx(ctx context.Context, obj core.Object, path core.Path, off, n int64) core.Handle {
	return w.start(ctx, obj, path, off, n, true)
}

// start validates the request like an HTTP range request — the object
// must exist and the range must be satisfiable — and an invalid one
// returns an already-done handle carrying the error, mirroring an
// immediate HTTP error response.
//
// A context is honoured at start only: one that is already dead yields a
// born-failed handle with the typed error, and a live one starts a
// normal transfer that then IGNORES later cancellation. Mid-flight
// cancellation is deliberately not modelled — contexts die in wall-clock
// time, transfers progress in virtual seconds, and coupling the two
// would make results depend on host scheduling. Losing probes therefore
// drain and contend for bandwidth, exactly as the paper's real probes
// did.
func (w *World) start(ctx context.Context, obj core.Object, path core.Path, off, n int64, warm bool) core.Handle {
	if err := core.CtxErr(ctx); err != nil {
		return w.failed(obj, path, off, n, err)
	}
	srv := w.servers[obj.Server]
	if srv == nil {
		return w.failed(obj, path, off, n, fmt.Errorf("%w: %s", ErrNoSuchServer, obj.Server))
	}
	size, ok := srv.Size(obj.Name)
	if !ok {
		return w.failed(obj, path, off, n, fmt.Errorf("%w: %s/%s", ErrNoSuchObject, obj.Server, obj.Name))
	}
	if off < 0 || n < 0 || off+n > size {
		return w.failed(obj, path, off, n,
			fmt.Errorf("%w: [%d,%d) of %d", ErrBadRange, off, off+n, size))
	}

	var links []*simnet.Link
	if path.IsDirect() {
		links = w.Inst.DirectPath(srv.Node)
	} else {
		inter := w.inters[path.Via]
		if inter == nil {
			return w.failed(obj, path, off, n, fmt.Errorf("%w: %s", ErrNoSuchIntermediate, path.Via))
		}
		links = w.Inst.IndirectPath(inter, srv.Node)
	}

	h := &handle{res: core.FetchResult{Path: path, Offset: off, Bytes: n, Start: w.Now()}}
	params := tcpmodel.FromLinks(links)
	begin := func() {
		flow := w.Inst.Net.StartFlow(simnet.FlowSpec{
			Label: fmt.Sprintf("%s/%s[%d+%d] %s", obj.Server, obj.Name, off, n, path),
			Links: links,
			Bytes: n,
			OnComplete: func(f *simnet.Flow) {
				h.res.End = f.Finish()
				h.done = true
			},
		})
		if warm {
			// The connection's congestion window is already open: cap at
			// the steady-state ceiling with no ramp.
			w.Inst.Net.SetRateCap(flow, params.Ceiling())
		} else {
			tcpmodel.Attach(w.Inst.Net, flow, params)
		}
	}
	if setup := w.SetupRTTs * params.RTT; setup > 0 && !warm {
		w.Inst.Net.Engine().After(setup, begin)
	} else {
		begin()
	}
	return h
}

// Wait advances virtual time until every handle is done. It panics if the
// event queue drains or the virtual-time budget is exhausted first, both
// of which indicate a simulation bug rather than a slow transfer.
func (w *World) Wait(hs ...core.Handle) {
	eng := w.Inst.Net.Engine()
	deadline := eng.Now() + maxVirtualWait
	pending := func() bool {
		for _, h := range hs {
			if !h.Done() {
				return true
			}
		}
		return false
	}
	for pending() {
		if eng.Now() > deadline {
			panic("httpsim: Wait exceeded virtual-time budget")
		}
		if !eng.Step() {
			panic("httpsim: event queue drained with transfers outstanding")
		}
	}
}

// WaitAny advances virtual time until at least one handle is done and
// returns its index, enabling the first-finished early commit.
func (w *World) WaitAny(hs ...core.Handle) int {
	eng := w.Inst.Net.Engine()
	deadline := eng.Now() + maxVirtualWait
	for {
		for i, h := range hs {
			if h.Done() {
				return i
			}
		}
		if eng.Now() > deadline {
			panic("httpsim: WaitAny exceeded virtual-time budget")
		}
		if !eng.Step() {
			panic("httpsim: event queue drained with transfers outstanding")
		}
	}
}

var _ core.Transport = (*World)(nil)
