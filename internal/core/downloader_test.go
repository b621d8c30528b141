package core

import (
	"context"
	"errors"
	"testing"
)

func TestDownloaderStaysOnBestPath(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 4e6
	d := &Downloader{Transport: tr, ProbeBytes: 100_000, SegmentBytes: 500_000}
	obj := Object{Server: "s", Name: "o", Size: 4_100_000}
	res, err := d.Download(context.Background(), obj, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinalPath().Via != "A" {
		t.Fatalf("final path %v, want A", res.FinalPath())
	}
	var total int64
	for _, s := range res.Segments {
		total += s.Bytes
	}
	if total != obj.Size {
		t.Fatalf("segments cover %d bytes, want %d", total, obj.Size)
	}
	if res.Failovers != 0 {
		t.Fatalf("unexpected failovers: %d", res.Failovers)
	}
}

func TestDownloaderSwitchesWhenPathDegrades(t *testing.T) {
	tr := newFake(2e6)
	tr.rate["A"] = 8e6
	// A collapses shortly after the download starts; direct becomes the
	// better path and the next re-race should move the download there.
	tr.schedule = append(tr.schedule, scheduledChange{at: 0.5, path: "A", rate: 0.2e6})
	d := &Downloader{Transport: tr, ProbeBytes: 100_000, SegmentBytes: 250_000, RefreshEvery: 2}
	obj := Object{Server: "s", Name: "o", Size: 5_000_000}
	res, err := d.Download(context.Background(), obj, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Switches == 0 {
		t.Fatal("downloader never switched off the degraded path")
	}
	if res.FinalPath().Via != Direct {
		t.Fatalf("final path %v, want direct after A degraded", res.FinalPath())
	}
}

func TestDownloaderFailsOverOnError(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 8e6
	tr.schedule = append(tr.schedule, scheduledChange{at: 0.5, path: "A", kill: true})
	d := &Downloader{Transport: tr, ProbeBytes: 50_000, SegmentBytes: 400_000, RefreshEvery: 100}
	obj := Object{Server: "s", Name: "o", Size: 4_000_000}
	res, err := d.Download(context.Background(), obj, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failovers == 0 {
		t.Fatal("no failover recorded despite path death")
	}
	if res.FinalPath().Via != Direct {
		t.Fatalf("final path %v, want direct", res.FinalPath())
	}
	var total int64
	for _, s := range res.Segments {
		total += s.Bytes
	}
	if total != obj.Size {
		t.Fatalf("covered %d bytes, want %d", total, obj.Size)
	}
}

func TestDownloaderAllPathsDead(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 2e6
	tr.schedule = append(tr.schedule,
		scheduledChange{at: 0.3, path: "A", kill: true},
		scheduledChange{at: 0.3, path: Direct, kill: true},
	)
	d := &Downloader{Transport: tr, ProbeBytes: 50_000, SegmentBytes: 200_000}
	obj := Object{Server: "s", Name: "o", Size: 4_000_000}
	_, err := d.Download(context.Background(), obj, []string{"A"})
	if !errors.Is(err, ErrAllPathsFailed) {
		t.Fatalf("err = %v, want ErrAllPathsFailed", err)
	}
}

func TestDownloaderTinyObject(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 2e6
	d := &Downloader{Transport: tr}
	obj := Object{Server: "s", Name: "o", Size: 30_000} // below probe size
	res, err := d.Download(context.Background(), obj, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Segments) != 1 || res.Segments[0].Bytes != 30_000 {
		t.Fatalf("segments = %+v", res.Segments)
	}
}

func TestDownloaderNoCandidates(t *testing.T) {
	tr := newFake(1e6)
	d := &Downloader{Transport: tr, SegmentBytes: 500_000}
	obj := Object{Server: "s", Name: "o", Size: 2_000_000}
	res, err := d.Download(context.Background(), obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FinalPath().IsDirect() {
		t.Fatal("direct-only download must end on direct")
	}
}

func TestDownloaderRefreshDisabled(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 4e6
	d := &Downloader{Transport: tr, ProbeBytes: 50_000, SegmentBytes: 100_000, RefreshEvery: -1}
	obj := Object{Server: "s", Name: "o", Size: 2_000_000}
	res, err := d.Download(context.Background(), obj, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	raced := 0
	for _, s := range res.Segments {
		if s.Raced {
			raced++
		}
	}
	if raced != 1 {
		t.Fatalf("raced segments = %d, want only the initial race", raced)
	}
}

func TestDownloaderThroughputAccounting(t *testing.T) {
	tr := newFake(4e6)
	d := &Downloader{Transport: tr, ProbeBytes: 100_000, SegmentBytes: 1_000_000, RefreshEvery: -1}
	obj := Object{Server: "s", Name: "o", Size: 4_100_000}
	res, err := d.Download(context.Background(), obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Single 4 Mb/s path: 4.1 MB should take ~8.2s.
	if res.Duration() < 8 || res.Duration() > 9 {
		t.Fatalf("duration %.2f, want ~8.2", res.Duration())
	}
	if tp := res.Throughput(); tp < 3.9e6 || tp > 4.1e6 {
		t.Fatalf("throughput %.0f, want ~4e6", tp)
	}
}
