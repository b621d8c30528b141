package repro_test

import (
	"context"
	"testing"

	"repro"
	"repro/internal/relay"
	"repro/internal/shaper"
)

// TestFacadeEndToEnd exercises the public API exactly as the README
// quickstart does: origin + relays on loopback, shaped paths, one
// select-and-fetch.
func TestFacadeEndToEnd(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("large.bin", 600_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()

	r := &relay.Relay{}
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()

	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 2e6})
	d.SetProfile(rl.Addr().String(), shaper.PathProfile{DownloadBps: 10e6})

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"campus": rl.Addr().String()},
		Dial:    d.Dial,
		Verify:  true,
	}

	obj := repro.Object{Server: "origin", Name: "large.bin", Size: 600_000}
	// The probe must exceed the shaper's 64 KB token burst for the rate
	// difference to show (the same reason the paper's probe must exceed
	// slow start).
	c := repro.New(tr, repro.WithProbeBytes(150_000))
	out := c.SelectAndFetch(context.Background(), obj, []string{"campus"})
	if out.Err != nil {
		t.Fatal(out.Err)
	}
	if out.Selected.Via != "campus" {
		t.Fatalf("selected %v, want the 10 Mb/s relay", out.Selected)
	}
	if out.Throughput() <= 0 {
		t.Fatal("no throughput")
	}
	if got := c.Metrics().Path("campus").Utilization; got != 1 {
		t.Fatalf("campus utilization %v, want 1 (offered once, won once)", got)
	}
}

func TestFacadeHelpers(t *testing.T) {
	if repro.Improvement(2, 1) != 100 {
		t.Error("Improvement facade broken")
	}
	if repro.Penalty(1, 3) != 200 {
		t.Error("Penalty facade broken")
	}
	if repro.Direct != "" {
		t.Error("Direct constant changed")
	}
	if repro.DefaultProbeBytes != 100_000 {
		t.Error("DefaultProbeBytes changed")
	}
	if repro.FirstFinished.String() != "first-finished" {
		t.Error("rule constants broken")
	}
}

func TestFacadeMultipath(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("large.bin", 600_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	r := &relay.Relay{}
	rl, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer rl.Close()
	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 4e6})
	d.SetProfile(rl.Addr().String(), shaper.PathProfile{DownloadBps: 4e6})
	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  map[string]string{"r": rl.Addr().String()},
		Dial:    d.Dial,
		Verify:  true,
	}
	defer tr.Close()
	mp := &repro.MultipathDownloader{Transport: tr, ChunkBytes: 150_000}
	obj := repro.Object{Server: "origin", Name: "large.bin", Size: 600_000}
	res, err := mp.Download(context.Background(), obj, []string{"r"})
	if err != nil {
		t.Fatal(err)
	}
	var total int64
	for _, s := range res.Shares {
		total += s.Bytes
	}
	if total != obj.Size {
		t.Fatalf("striped %d of %d bytes", total, obj.Size)
	}
}

func TestFacadeDownloader(t *testing.T) {
	origin := relay.NewOriginServer()
	origin.Put("large.bin", 500_000)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ol.Close()
	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Verify:  true,
	}
	defer tr.Close()
	dl := &repro.Downloader{Transport: tr, ProbeBytes: 50_000, SegmentBytes: 200_000}
	obj := repro.Object{Server: "origin", Name: "large.bin", Size: 500_000}
	res, err := dl.Download(context.Background(), obj, nil)
	if err != nil {
		t.Fatal(err)
	}
	if !res.FinalPath().IsDirect() {
		t.Fatalf("final path %v", res.FinalPath())
	}
}
