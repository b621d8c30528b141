package core

import (
	"context"
	"errors"
	"fmt"
)

// Sentinel errors for the failure modes a selecting client must tell
// apart: a path that was slow enough to blow a deadline (penalty), an
// operation the caller abandoned (cancellation), and an outage where no
// path could deliver at all. All errors returned by the engine and by the
// real transport wrap one of these, so callers use errors.Is rather than
// string matching.
var (
	// ErrAllPathsFailed reports that every candidate path (including
	// direct) failed during an operation.
	ErrAllPathsFailed = errors.New("core: all paths failed")

	// ErrCanceled reports that a transfer was abandoned because its
	// context was canceled — either by the caller or by the engine
	// reaping a losing probe.
	ErrCanceled = errors.New("core: transfer canceled")

	// ErrProbeTimeout reports that a transfer's deadline expired before
	// it completed. Probes are the common case (a path too slow to probe
	// within budget is treated as failed, not waited out), but any
	// deadline-bearing transfer maps its expiry here.
	ErrProbeTimeout = errors.New("core: transfer deadline exceeded")
)

// The two translations CtxErr hands out for the standard library's
// context errors, built once: every losing probe of every race ends in
// one of them, and a shared error value costs it nothing.
var (
	errDeadline = fmt.Errorf("%w: %w", ErrProbeTimeout, context.DeadlineExceeded)
	errCanceled = fmt.Errorf("%w: %w", ErrCanceled, context.Canceled)
)

// CtxErr translates a context's termination into the package's typed
// errors: DeadlineExceeded becomes ErrProbeTimeout, Canceled becomes
// ErrCanceled. It returns nil while the context is live. Both the typed
// sentinel and the underlying context error are in the wrap chain, so
// errors.Is works against either. For the standard library's two
// context errors the result is a shared value and allocates nothing; a
// context reporting any other error gets it wrapped afresh.
func CtxErr(ctx context.Context) error {
	switch err := ctx.Err(); {
	case err == nil:
		return nil
	case err == context.DeadlineExceeded:
		return errDeadline
	case err == context.Canceled:
		return errCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return fmt.Errorf("%w: %w", ErrProbeTimeout, err)
	default:
		return fmt.Errorf("%w: %w", ErrCanceled, err)
	}
}
