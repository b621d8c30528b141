package core

import (
	"errors"
	"slices"

	"repro/internal/obs"
)

// label is the route name records aggregate by (obs.PathID.Label).
func (p Path) label() string { return obs.PathID{Via: p.Via}.Label() }

// Classer is implemented by error types that know their own observability
// class — e.g. the real transport's status-line error reports
// obs.ClassStatus. It lets lower layers refine classification without this
// package importing them.
type Classer interface {
	ObsClass() obs.ErrClass
}

// ErrClassOf buckets an engine or transport error into the observability
// error taxonomy: the typed sentinels map to their classes, errors
// implementing Classer speak for themselves, and anything else is a plain
// failure.
func ErrClassOf(err error) obs.ErrClass {
	if err == nil {
		return obs.ClassOK
	}
	switch {
	case errors.Is(err, ErrCanceled):
		return obs.ClassCanceled
	case errors.Is(err, ErrProbeTimeout):
		return obs.ClassTimeout
	}
	var c Classer
	if errors.As(err, &c) {
		return c.ObsClass()
	}
	return obs.ClassFailed
}

func errText(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

// fold hands m the record of one finished operation (see record). The
// legs are built in a stack buffer and Metrics is a concrete sink, so
// recording allocates nothing the unrecorded operation does not. A nil m
// records nothing.
func fold(m *obs.Metrics, sel *Path, probes []ProbeResult, reaped []int, transfers ...FetchResult) {
	if m == nil {
		return
	}
	var buf [8]obs.Leg
	op := record(buf[:0], sel, probes, reaped, transfers...)
	m.Fold(&op)
}

// record describes one finished operation, appending its legs to legs: a
// probe leg per issued probe, in index order (those whose index is in
// reaped were canceled as losers), then one per payload transfer. sel is
// the route committed to, nil when the operation selected nothing.
func record(legs []obs.Leg, sel *Path, probes []ProbeResult, reaped []int, transfers ...FetchResult) obs.Op {
	op := obs.Op{Legs: legs}
	if sel != nil {
		op.Route, op.Selected = sel.label(), true
	}
	for i := range probes {
		op.Legs = append(op.Legs, leg(&probes[i].FetchResult, true, slices.Contains(reaped, i)))
	}
	for i := range transfers {
		op.Legs = append(op.Legs, leg(&transfers[i], false, false))
	}
	return op
}

// leg describes one finished transfer. It was aborted when it ended with
// its context's typed error, ErrCanceled or ErrProbeTimeout (a transfer's
// deadline is always its context's).
func leg(r *FetchResult, probe, reaped bool) obs.Leg {
	class := ErrClassOf(r.Err)
	return obs.Leg{
		Route: r.Path.label(), Probe: probe,
		Start: r.Start, End: r.End, Bytes: r.Bytes, Class: class,
		Reaped: reaped, Aborted: class == obs.ClassCanceled || class == obs.ClassTimeout,
		Streamed: r.Streamed, Retries: r.Retries,
	}
}
