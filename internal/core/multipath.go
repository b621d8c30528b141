package core

import (
	"context"
	"fmt"

	"repro/internal/obs"
)

// MultipathDownloader stripes one object across several paths at once:
// the direct path and every candidate relay each pull chunks from a
// shared work queue, so fast paths naturally carry more of the object
// (work stealing). This is the mesh-flavored alternative the paper's
// related work (Bullet) hints at: instead of *selecting* the best path,
// aggregate them — which wins when path rates are comparable and the
// client's access link is not the shared bottleneck.
type MultipathDownloader struct {
	Transport Transport

	// ChunkBytes is the striping granularity (default 500 KB). Small
	// chunks balance better; large chunks amortize per-request overhead.
	ChunkBytes int64

	// Metrics folds the download as one operation with a transfer per
	// chunk issued. Nil records nothing.
	Metrics *obs.Metrics
}

// PathShare reports one path's contribution to a multipath download.
type PathShare struct {
	Path   Path
	Chunks int
	Bytes  int64
}

// MultipathResult summarizes a striped download.
type MultipathResult struct {
	Object     Object
	Start, End float64
	Shares     []PathShare
	Failures   int
}

// Duration returns the download's wall (or virtual) duration.
func (r MultipathResult) Duration() float64 { return r.End - r.Start }

// Throughput returns the aggregate goodput in bits/sec.
func (r MultipathResult) Throughput() float64 {
	d := r.Duration()
	if d <= 0 {
		return 0
	}
	return float64(r.Object.Size) * 8 / d
}

func (d *MultipathDownloader) chunkBytes() int64 {
	if d.ChunkBytes > 0 {
		return d.ChunkBytes
	}
	return 500_000
}

// maxChunkFailures bounds how many chunk failures a download tolerates
// before giving up. A path whose chunk fails is retired; its chunk is
// requeued for the surviving paths.
const maxChunkFailures = 8

// chunk is one contiguous piece of the object.
type chunk struct {
	off, n int64
}

// Download stripes obj across the direct path and the candidates. It
// requires len(candidates) >= 1 (with none, use a plain fetch). Once ctx
// dies, no further chunks are issued, outstanding chunks are reaped, and
// the typed error (wrapping ErrCanceled or ErrProbeTimeout) is returned
// with the partial result.
func (d *MultipathDownloader) Download(ctx context.Context, obj Object, candidates []string) (MultipathResult, error) {
	t := d.Transport
	res := MultipathResult{Object: obj, Start: t.Now()}

	paths := []Path{{Via: Direct}}
	for _, c := range candidates {
		paths = append(paths, Path{Via: c})
	}
	shares := make(map[Path]*PathShare, len(paths))
	for _, p := range paths {
		shares[p] = &PathShare{Path: p}
	}

	// Build the chunk queue.
	var queue []chunk
	for off := int64(0); off < obj.Size; off += d.chunkBytes() {
		n := d.chunkBytes()
		if rest := obj.Size - off; rest < n {
			n = rest
		}
		queue = append(queue, chunk{off, n})
	}

	// One outstanding chunk per live path; work-steal as chunks finish.
	type inflight struct {
		path Path
		c    chunk
		h    Handle
	}
	var active []inflight
	dead := map[Path]bool{}
	var chunks []FetchResult // every finished chunk, for the record
	defer func() { fold(d.Metrics, nil, nil, nil, chunks...) }()

	issue := func(p Path, warm bool) bool {
		if len(queue) == 0 || ctx.Err() != nil {
			return false
		}
		c := queue[0]
		queue = queue[1:]
		var h Handle
		if warm {
			h = t.StartWarmCtx(ctx, obj, p, c.off, c.n)
		} else {
			h = t.StartCtx(ctx, obj, p, c.off, c.n)
		}
		active = append(active, inflight{p, c, h})
		return true
	}
	for _, p := range paths {
		if !issue(p, false) {
			break
		}
	}

	for len(active) > 0 {
		// Wait for any outstanding chunk.
		hs := make([]Handle, len(active))
		for i, a := range active {
			hs[i] = a.h
		}
		idx := t.WaitAny(hs...)
		done := active[idx]
		active = append(active[:idx], active[idx+1:]...)

		r := done.h.Result()
		chunks = append(chunks, r)
		if r.Err != nil {
			if err := CtxErr(ctx); err != nil {
				// The operation was abandoned: reap what is still in
				// flight and report the cancellation, not a path outage.
				for _, a := range active {
					t.Wait(a.h)
					chunks = append(chunks, a.h.Result())
				}
				res.End = t.Now()
				return res, err
			}
			res.Failures++
			if res.Failures > maxChunkFailures {
				res.End = t.Now()
				return res, fmt.Errorf("%w: chunk at %d: %v", ErrAllPathsFailed, done.c.off, r.Err)
			}
			dead[done.path] = true
			// Requeue the chunk for the survivors.
			queue = append([]chunk{done.c}, queue...)
			alive := false
			for _, p := range paths {
				if !dead[p] {
					alive = true
					break
				}
			}
			if !alive && len(active) == 0 {
				res.End = t.Now()
				return res, fmt.Errorf("%w: every path retired", ErrAllPathsFailed)
			}
			// If the survivors are all busy, the chunk waits for the
			// next completion.
			for _, p := range paths {
				busy := false
				for _, a := range active {
					if a.path == p {
						busy = true
						break
					}
				}
				if !dead[p] && !busy {
					issue(p, false)
					break
				}
			}
			continue
		}

		sh := shares[done.path]
		sh.Chunks++
		sh.Bytes += done.c.n
		// Continue on this (now warm) path.
		if !dead[done.path] {
			issue(done.path, true)
		}
	}

	res.End = t.Now()
	for _, p := range paths {
		res.Shares = append(res.Shares, *shares[p])
	}
	var got int64
	for _, s := range res.Shares {
		got += s.Bytes
	}
	if got != obj.Size {
		if err := CtxErr(ctx); err != nil {
			return res, err
		}
		return res, fmt.Errorf("core: multipath delivered %d of %d bytes", got, obj.Size)
	}
	return res, nil
}
