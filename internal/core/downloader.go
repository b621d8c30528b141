package core

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// Downloader is the adaptive extension the paper's conclusion sketches:
// instead of committing to the probe winner for the whole remainder, the
// client downloads in segments, periodically re-races the paths (the
// re-probe doubles as useful transfer: it fetches the next x bytes of the
// object), and switches when another path is currently faster. It also
// fails over when a path dies mid-transfer, in the spirit of the
// one-hop-source-routing and MONET work the paper cites.
type Downloader struct {
	Transport Transport

	// ProbeBytes is the race size x (DefaultProbeBytes when 0).
	ProbeBytes int64

	// SegmentBytes is how much is fetched per step between re-evaluation
	// points (default 1 MB).
	SegmentBytes int64

	// RefreshEvery is how many segments are fetched on the current path
	// between re-races (default 4; 0 keeps the default, negative
	// disables re-racing).
	RefreshEvery int

	// Rule picks race winners (FirstFinished when unset).
	Rule Rule

	// MaxFailovers bounds how many path failures a download survives
	// (default 3).
	MaxFailovers int

	// Observer receives the download's lifecycle events: every re-race's
	// probes and selection, and every segment as a transfer. Nil disables
	// emission.
	Observer obs.Observer
}

// Segment records one contiguous fetch within a download.
type Segment struct {
	Path       Path
	Offset     int64
	Bytes      int64
	Throughput float64 // bits/sec
	Raced      bool    // this segment was fetched as part of a re-race
}

// DownloadResult summarizes an adaptive download.
type DownloadResult struct {
	Object     Object
	Segments   []Segment
	Start, End float64
	Switches   int // path changes after the initial selection
	Failovers  int // switches forced by errors
}

// Duration returns the download's total duration in seconds.
func (r DownloadResult) Duration() float64 { return r.End - r.Start }

// Throughput returns the overall throughput in bits/sec.
func (r DownloadResult) Throughput() float64 {
	d := r.Duration()
	if d <= 0 {
		return 0
	}
	return float64(r.Object.Size) * 8 / d
}

// FinalPath returns the path in use when the download finished.
func (r DownloadResult) FinalPath() Path {
	if len(r.Segments) == 0 {
		return Path{}
	}
	return r.Segments[len(r.Segments)-1].Path
}

func (d *Downloader) probeBytes() int64 {
	if d.ProbeBytes > 0 {
		return d.ProbeBytes
	}
	return DefaultProbeBytes
}

func (d *Downloader) segmentBytes() int64 {
	if d.SegmentBytes > 0 {
		return d.SegmentBytes
	}
	return 1_000_000
}

func (d *Downloader) refreshEvery() int {
	switch {
	case d.RefreshEvery > 0:
		return d.RefreshEvery
	case d.RefreshEvery < 0:
		return 1 << 30 // effectively never
	default:
		return 4
	}
}

func (d *Downloader) maxFailovers() int {
	if d.MaxFailovers > 0 {
		return d.MaxFailovers
	}
	return 3
}

// Download fetches obj adaptively over the direct path and the candidate
// indirect paths. It returns a result describing every segment even when
// the download ultimately fails. Cancellation or deadline expiry of ctx
// stops issuing segments and returns the typed error (wrapping
// ErrCanceled or ErrProbeTimeout) alongside the partial result.
func (d *Downloader) Download(ctx context.Context, obj Object, candidates []string) (DownloadResult, error) {
	t := d.Transport
	res := DownloadResult{Object: obj, Start: t.Now()}

	alive := map[Path]bool{{Via: Direct}: true}
	paths := []Path{{Via: Direct}}
	for _, c := range candidates {
		p := Path{Via: c}
		alive[p] = true
		paths = append(paths, p)
	}

	x := d.probeBytes()
	if x > obj.Size {
		x = obj.Size
	}

	// Initial race doubles as the first x bytes of payload.
	offset := int64(0)
	current, raced, err := d.race(ctx, obj, offset, x, paths, alive, &res)
	if err != nil {
		res.End = t.Now()
		return res, err
	}
	offset += raced
	failovers := 0
	sinceRace := 0

	for offset < obj.Size {
		if err := CtxErr(ctx); err != nil {
			res.End = t.Now()
			return res, err
		}
		if sinceRace >= d.refreshEvery() {
			// Re-race the live paths over the next x bytes; the winner
			// becomes the current path and the bytes count as progress.
			n := x
			if rest := obj.Size - offset; rest < n {
				n = rest
			}
			prev := current
			next, raced, err := d.race(ctx, obj, offset, n, paths, alive, &res)
			if err != nil {
				res.End = t.Now()
				return res, err
			}
			current = next
			offset += raced
			sinceRace = 0
			if current != prev {
				res.Switches++
			}
			continue
		}

		n := d.segmentBytes()
		if rest := obj.Size - offset; rest < n {
			n = rest
		}
		// Segments continue the current path's established connection.
		emitTransferStart(d.Observer, t, obj, current, offset, n, true)
		h := t.StartWarmCtx(ctx, obj, current, offset, n)
		t.Wait(h)
		r := h.Result()
		emitTransferEnd(d.Observer, obj, r, true)
		if r.Err != nil {
			if err := CtxErr(ctx); err != nil {
				res.End = t.Now()
				return res, err
			}
			alive[current] = false
			failovers++
			res.Failovers++
			res.Switches++
			if failovers > d.maxFailovers() {
				res.End = t.Now()
				return res, fmt.Errorf("%w: too many failovers (last: %v)", ErrAllPathsFailed, r.Err)
			}
			// Re-race the survivors to pick a replacement.
			next, raced, err := d.race(ctx, obj, offset, minI64(x, obj.Size-offset), paths, alive, &res)
			if err != nil {
				res.End = t.Now()
				return res, err
			}
			current = next
			offset += raced
			sinceRace = 0
			continue
		}
		res.Segments = append(res.Segments, Segment{
			Path: current, Offset: offset, Bytes: n, Throughput: r.Throughput(),
		})
		offset += n
		sinceRace++
	}
	res.End = t.Now()
	return res, nil
}

// race fetches [off, off+n) concurrently on every live path and returns
// the winning path. The winner's fetch is recorded as a raced segment; the
// losers' duplicate bytes are measurement overhead, exactly like the
// paper's probes. Paths whose race fetch fails are marked dead.
func (d *Downloader) race(ctx context.Context, obj Object, off, n int64, paths []Path, alive map[Path]bool, res *DownloadResult) (Path, int64, error) {
	t := d.Transport
	var racers []Path
	for _, p := range paths {
		if alive[p] {
			racers = append(racers, p)
		}
	}
	if len(racers) == 0 {
		return Path{}, 0, ErrAllPathsFailed
	}
	if n <= 0 {
		return racers[0], 0, nil
	}
	raceStart := t.Now()
	handles := launch(ctx, t, d.Observer, obj, racers, off, n, nil)
	t.Wait(handles...)

	probes := collect(d.Observer, obj, handles)
	okCount := 0
	for i := range probes {
		if probes[i].Err != nil {
			alive[racers[i]] = false
		} else {
			okCount++
		}
	}
	if okCount == 0 {
		if err := CtxErr(ctx); err != nil {
			return Path{}, 0, err
		}
		return Path{}, 0, fmt.Errorf("%w: race at offset %d", ErrAllPathsFailed, off)
	}
	winner := Choose(probes, d.Rule)
	emitSelection(d.Observer, t, obj, winner, d.Rule.String(), len(racers), t.Now()-raceStart)
	for _, p := range probes {
		if p.Path == winner && p.Err == nil {
			res.Segments = append(res.Segments, Segment{
				Path: winner, Offset: off, Bytes: n,
				Throughput: p.Throughput(), Raced: true,
			})
		}
	}
	return winner, n, nil
}

func minI64(a, b int64) int64 {
	if a < b {
		return a
	}
	return b
}
