package core

import (
	"context"
	"errors"
)

// fakeTransport is the package's one test transport: a rate per path over
// an explicit clock, paths that fail, rates that change on a schedule,
// and handles that remember their context so a test can see which
// transfers the engine canceled. Like the simulator, a wait advances the
// clock only as far as it must.
type fakeTransport struct {
	now  float64
	rate map[string]float64 // bits/sec per Path.Via ("" = direct)
	fail map[string]error

	// schedule is applied as the clock passes each entry's threshold.
	schedule []scheduledChange
	starts   int

	// onWait runs after each Wait/WaitAny completes (e.g. to cancel a
	// context between sequential probes).
	onWait func()

	handles []*fakeHandle
}

type scheduledChange struct {
	at    float64
	path  string
	rate  float64
	kill  bool
	fired bool
}

type fakeHandle struct {
	ctx  context.Context
	res  FetchResult
	done bool
}

func (h *fakeHandle) Done() bool          { return h.done }
func (h *fakeHandle) Result() FetchResult { return h.res }

func newFake(direct float64) *fakeTransport {
	return &fakeTransport{
		rate: map[string]float64{Direct: direct},
		fail: map[string]error{},
	}
}

func (t *fakeTransport) applySchedule() {
	for i := range t.schedule {
		s := &t.schedule[i]
		if !s.fired && t.now >= s.at {
			if s.kill {
				t.fail[s.path] = errors.New("path down")
			} else {
				t.rate[s.path] = s.rate
			}
			s.fired = true
		}
	}
}

func (t *fakeTransport) Now() float64 { return t.now }

func (t *fakeTransport) StartCtx(ctx context.Context, obj Object, path Path, off, n int64) Handle {
	t.starts++
	t.applySchedule()
	h := &fakeHandle{ctx: ctx, res: FetchResult{Path: path, Offset: off, Bytes: n, Start: t.now}}
	t.handles = append(t.handles, h)
	err := CtxErr(ctx)
	if err == nil {
		err = t.fail[path.Via]
	}
	if err == nil && t.rate[path.Via] <= 0 {
		err = errors.New("no such path")
	}
	if err != nil {
		h.res.Err, h.res.End, h.done = err, t.now, true
		return h
	}
	h.res.End = t.now + float64(n)*8/t.rate[path.Via]
	return h
}

// StartWarmCtx is StartCtx: the fake charges no connection setup.
func (t *fakeTransport) StartWarmCtx(ctx context.Context, obj Object, path Path, off, n int64) Handle {
	return t.StartCtx(ctx, obj, path, off, n)
}

// finish completes one handle: canceled contexts fail it with the typed
// error at the current fake time, live ones let it run to its End.
func (t *fakeTransport) finish(h *fakeHandle) {
	if h.done {
		return
	}
	if err := CtxErr(h.ctx); err != nil {
		h.res.Err, h.res.End = err, t.now
	} else if h.res.End > t.now {
		t.now = h.res.End
	}
	h.done = true
}

func (t *fakeTransport) waited() {
	t.applySchedule()
	if t.onWait != nil {
		t.onWait()
	}
}

func (t *fakeTransport) Wait(hs ...Handle) {
	for _, h := range hs {
		t.finish(h.(*fakeHandle))
	}
	t.waited()
}

// WaitAny completes the earliest-ending pending handle, advancing the
// clock only to that point.
func (t *fakeTransport) WaitAny(hs ...Handle) int {
	best, bestEnd := -1, 0.0
	for i, h := range hs {
		fh := h.(*fakeHandle)
		if fh.done {
			return i
		}
		if CtxErr(fh.ctx) != nil {
			t.finish(fh)
			return i
		}
		if best < 0 || fh.res.End < bestEnd {
			best, bestEnd = i, fh.res.End
		}
	}
	t.finish(hs[best].(*fakeHandle))
	t.waited()
	return best
}

var _ Transport = (*fakeTransport)(nil)
