package core

import (
	"context"
	"errors"
	"testing"
)

func TestMultipathCoversObject(t *testing.T) {
	tr := newFake(2e6)
	tr.rate["A"] = 4e6
	d := &MultipathDownloader{Transport: tr, ChunkBytes: 500_000}
	obj := Object{Server: "s", Name: "o", Size: 3_200_000}
	res, err := d.Download(context.Background(), obj, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range res.Shares {
		total += s.Bytes
	}
	if total != obj.Size {
		t.Fatalf("shares cover %d of %d", total, obj.Size)
	}
}

func TestMultipathFastPathCarriesMore(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["fast"] = 8e6
	d := &MultipathDownloader{Transport: tr, ChunkBytes: 250_000}
	obj := Object{Server: "s", Name: "o", Size: 8_000_000}
	res, err := d.Download(context.Background(), obj, []string{"fast"})
	if err != nil {
		t.Fatal(err)
	}
	var direct, fast int64
	for _, s := range res.Shares {
		if s.Path.IsDirect() {
			direct = s.Bytes
		} else {
			fast = s.Bytes
		}
	}
	if fast <= direct*3 {
		t.Fatalf("8x-faster path carried %d vs direct %d; work stealing inert", fast, direct)
	}
}

func TestMultipathAggregatesBandwidth(t *testing.T) {
	// Two comparable, independent paths: the striped download should beat
	// the better single path clearly.
	tr := newFake(3e6)
	tr.rate["A"] = 3e6
	d := &MultipathDownloader{Transport: tr, ChunkBytes: 250_000}
	obj := Object{Server: "s", Name: "o", Size: 6_000_000}
	res, err := d.Download(context.Background(), obj, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	if res.Throughput() < 4.5e6 {
		t.Fatalf("aggregate throughput %.1f Mb/s, want > 4.5 (two 3 Mb/s paths)", res.Throughput()/1e6)
	}
}

func TestMultipathSurvivesPathDeath(t *testing.T) {
	tr := newFake(2e6)
	tr.rate["A"] = 2e6
	tr.schedule = append(tr.schedule, scheduledChange{at: 1.0, path: "A", kill: true})
	d := &MultipathDownloader{Transport: tr, ChunkBytes: 400_000}
	obj := Object{Server: "s", Name: "o", Size: 6_000_000}
	res, err := d.Download(context.Background(), obj, []string{"A"})
	if err != nil {
		t.Fatalf("multipath did not survive path death: %v", err)
	}
	if res.Failures == 0 {
		t.Fatal("no failure recorded despite path death")
	}
	var total int64
	for _, s := range res.Shares {
		total += s.Bytes
	}
	if total != obj.Size {
		t.Fatalf("covered %d of %d after failover", total, obj.Size)
	}
}

func TestMultipathAllPathsDead(t *testing.T) {
	tr := newFake(2e6)
	tr.rate["A"] = 2e6
	tr.schedule = append(tr.schedule,
		scheduledChange{at: 0.5, path: Direct, kill: true},
		scheduledChange{at: 0.5, path: "A", kill: true},
	)
	d := &MultipathDownloader{Transport: tr, ChunkBytes: 300_000, MaxFailures: 3}
	obj := Object{Server: "s", Name: "o", Size: 8_000_000}
	_, err := d.Download(context.Background(), obj, []string{"A"})
	if !errors.Is(err, ErrAllPathsFailed) {
		t.Fatalf("err = %v, want ErrAllPathsFailed", err)
	}
}

func TestMultipathTinyObject(t *testing.T) {
	tr := newFake(1e6)
	tr.rate["A"] = 1e6
	d := &MultipathDownloader{Transport: tr}
	obj := Object{Server: "s", Name: "o", Size: 100_000} // below one chunk
	res, err := d.Download(context.Background(), obj, []string{"A"})
	if err != nil {
		t.Fatal(err)
	}
	chunks := 0
	for _, s := range res.Shares {
		chunks += s.Chunks
	}
	if chunks != 1 {
		t.Fatalf("chunks = %d, want 1", chunks)
	}
}
