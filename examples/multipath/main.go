// multipath: Bullet-style striping over real TCP on loopback. An origin
// and two relays serve a 2 MB object over shaped paths (direct 3 Mb/s,
// relays 4 and 5 Mb/s); the MultipathDownloader pulls chunks over all
// three concurrently with work stealing and aggregates their bandwidth —
// then the same object is fetched with the paper's single-path selection
// for comparison.
//
//	go run ./examples/multipath
package main

import (
	"context"
	"fmt"
	"log"

	"repro"
	"repro/internal/relay"
	"repro/internal/shaper"
)

func main() {
	origin := relay.NewOriginServer()
	const objSize = 2_000_000
	origin.Put("large.bin", objSize)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ol.Close()

	relays := map[string]string{}
	for _, name := range []string{"r1", "r2"} {
		r := &relay.Relay{}
		l, err := r.ServeAddr("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		relays[name] = l.Addr().String()
	}

	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 3e6})
	d.SetProfile(relays["r1"], shaper.PathProfile{DownloadBps: 4e6})
	d.SetProfile(relays["r2"], shaper.PathProfile{DownloadBps: 5e6})

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays:  relays,
		Dial:    d.Dial,
		Verify:  true,
	}
	defer tr.Close()
	obj := repro.Object{Server: "origin", Name: "large.bin", Size: objSize}
	cands := []string{"r1", "r2"}

	fmt.Println("paths: direct 3 Mb/s, r1 4 Mb/s, r2 5 Mb/s")

	sel := repro.New(tr, repro.WithProbeBytes(150_000)).SelectAndFetch(context.Background(), obj, cands)
	if sel.Err != nil {
		log.Fatal(sel.Err)
	}
	fmt.Printf("single-path selection: chose %s, %.2f Mb/s overall\n",
		sel.Selected, sel.Throughput()/1e6)

	mp := &repro.MultipathDownloader{Transport: tr, ChunkBytes: 250_000}
	res, err := mp.Download(context.Background(), obj, cands)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("multipath striping:    %.2f Mb/s aggregate\n", res.Throughput()/1e6)
	for _, s := range res.Shares {
		fmt.Printf("  %-10s %2d chunks, %7d bytes\n", s.Path, s.Chunks, s.Bytes)
	}
}
