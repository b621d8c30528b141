// realrelay: the whole system over real TCP on loopback. It starts an
// origin server and three relay daemons in-process, shapes each path with
// a token-bucket emulator (direct 3 Mb/s; relays at 12, 2, and 6 Mb/s),
// then runs the selecting client five times and shows which path wins.
//
//	go run ./examples/realrelay
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"repro"
	"repro/internal/relay"
	"repro/internal/shaper"
)

func main() {
	// Origin with a 1.5 MB object.
	origin := relay.NewOriginServer()
	const objSize = 1_500_000
	origin.Put("large.bin", objSize)
	ol, err := origin.ServeAddr("127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	defer ol.Close()

	// Three relay daemons.
	relays := map[string]*relay.Relay{"fast": {}, "slow": {}, "mid": {}}
	addrs := map[string]string{}
	for name, r := range relays {
		l, err := r.ServeAddr("127.0.0.1:0")
		if err != nil {
			log.Fatal(err)
		}
		defer l.Close()
		addrs[name] = l.Addr().String()
	}

	// Path emulation: per-target download rates + latency.
	d := shaper.NewDialer()
	d.SetProfile(ol.Addr().String(), shaper.PathProfile{DownloadBps: 3e6, Latency: 40 * time.Millisecond})
	d.SetProfile(addrs["fast"], shaper.PathProfile{DownloadBps: 12e6, Latency: 30 * time.Millisecond})
	d.SetProfile(addrs["slow"], shaper.PathProfile{DownloadBps: 2e6, Latency: 60 * time.Millisecond})
	d.SetProfile(addrs["mid"], shaper.PathProfile{DownloadBps: 6e6, Latency: 35 * time.Millisecond})

	tr := &repro.RealTransport{
		Servers: map[string]string{"origin": ol.Addr().String()},
		Relays: map[string]string{
			"fast": addrs["fast"],
			"slow": addrs["slow"],
			"mid":  addrs["mid"],
		},
		Dial:   d.Dial,
		Verify: true,
	}

	client := repro.New(tr, repro.WithProbeBytes(64_000))

	obj := repro.Object{Server: "origin", Name: "large.bin", Size: objSize}
	fmt.Printf("downloading %d bytes, direct at 3 Mb/s; relays fast=12, mid=6, slow=2 Mb/s\n\n", objSize)
	for i := 0; i < 5; i++ {
		out := client.SelectAndFetch(context.Background(), obj, []string{"fast", "slow", "mid"})
		if out.Err != nil {
			log.Fatalf("round %d: %v", i, out.Err)
		}
		fmt.Printf("round %d: selected %-10s overall %5.2f Mb/s (probe phase %.2fs, total %.2fs)\n",
			i+1, out.Selected, out.Throughput()/1e6, out.ProbeEnd-out.Start, out.Duration())
	}
	fmt.Printf("\nrelay accounting: ")
	for name, r := range relays {
		fmt.Printf("%s=%dB ", name, r.BytesRelayed.Load())
	}
	fmt.Println()
}
