package registry

import (
	"bufio"
	"net"
	"strconv"
	"strings"
	"testing"
)

// Fuzz targets for both sides of the wire grammar. The invariants are
// crash-freedom and round-trip fidelity: anything a parser accepts must
// re-encode to a line the same parser accepts with the same meaning, so
// the server and client cannot drift apart.

func FuzzParseRequest(f *testing.F) {
	for _, seed := range []string{
		"REGISTER campus 10.0.0.2:8081 60",
		"REGISTER campus 10.0.0.2:8081 60 0.95",
		"REGISTER campus 10.0.0.2:8081 60 0.95 10.0.0.2:9081",
		"REGISTER campus 10.0.0.2:8081 60 -1 10.0.0.2:9081",
		"REGISTER campus 10.0.0.2:8081 60 -1",
		"REGISTER a b 0",
		"REGISTER a b -5 2",
		"LIST",
		"LISTH",
		"LISTH 5",
		"LISTD 0",
		"LISTD 42 10",
		"LISTD x",
		"EPOCH",
		"SYNCD 7",
		"SYNCD",
		"",
		"NOPE what",
		"REGISTER  double  spaces  60",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		req, err := parseRequest(line)
		if err != nil {
			return
		}
		switch req.Kind {
		case reqRegister:
			if req.Name == "" || req.Addr == "" || req.TTL <= 0 {
				t.Fatalf("parseRequest(%q) accepted invalid REGISTER: %+v", line, req)
			}
			if req.Health != HealthUnreported && (req.Health < 0 || req.Health > 1) {
				t.Fatalf("parseRequest(%q) accepted out-of-range health: %+v", line, req)
			}
		case reqListH, reqListD:
			if req.K < 0 {
				t.Fatalf("parseRequest(%q) accepted negative k: %+v", line, req)
			}
		}
	})
}

func FuzzParseListEntry(f *testing.F) {
	for _, seed := range []string{
		"campus 10.0.0.2:8081",
		"campus 10.0.0.2:8081 0.95 up",
		"campus 10.0.0.2:8081 0.95 up 10.0.0.2:9081",
		"campus 10.0.0.2:8081 -1 down",
		"campus 10.0.0.2:8081 0.5 sideways",
		"one",
		"a b c d e f",
	} {
		f.Add(seed, true)
		f.Add(seed, false)
	}
	f.Fuzz(func(t *testing.T, line string, ranked bool) {
		e, err := parseListEntry(line, ranked)
		if err != nil {
			return
		}
		// Round-trip: re-encode the way the server does and re-parse.
		var enc string
		if ranked {
			enc = e.Name + " " + e.Addr + " " + formatHealth(e.Health) + " " + stateWord(e.Down) +
				maddrSuffix(e.MetricsAddr)
		} else {
			enc = e.Name + " " + e.Addr
		}
		e2, err := parseListEntry(enc, ranked)
		if err != nil {
			t.Fatalf("round-trip of %q -> %q failed: %v", line, enc, err)
		}
		if e2.Name != e.Name || e2.Addr != e.Addr || e2.Down != e.Down || e2.MetricsAddr != e.MetricsAddr {
			t.Fatalf("round-trip changed meaning: %+v vs %+v", e, e2)
		}
	})
}

func FuzzParseDeltaLine(f *testing.F) {
	for _, seed := range []string{
		"+ campus 10.0.0.2:8081 0.95 up",
		"+ campus 10.0.0.2:8081 0.95 up 10.0.0.2:9081",
		"+ campus 10.0.0.2:8081 -1 down",
		"- campus",
		"- ",
		"+ short",
		"? campus x 0.5 up",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		de, err := parseDeltaLine(line)
		if err != nil {
			return
		}
		var enc string
		if de.Deleted {
			enc = "- " + de.Name
		} else {
			enc = "+ " + de.Name + " " + de.Addr + " " + formatHealth(de.Health) + " " + stateWord(de.Down) +
				maddrSuffix(de.MetricsAddr)
		}
		de2, err := parseDeltaLine(enc)
		if err != nil {
			t.Fatalf("round-trip of %q -> %q failed: %v", line, enc, err)
		}
		if de2.Name != de.Name || de2.Deleted != de.Deleted || de2.Addr != de.Addr || de2.MetricsAddr != de.MetricsAddr {
			t.Fatalf("round-trip changed meaning: %+v vs %+v", de, de2)
		}
	})
}

func FuzzParseEpochLine(f *testing.F) {
	for _, seed := range []string{"EPOCH 0", "EPOCH 42 full", "EPOCH", "EPOCH x", "EPOCH 1 partial"} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		epoch, full, err := parseEpochLine(line)
		if err != nil {
			return
		}
		enc := "EPOCH " + strconv.FormatUint(epoch, 10)
		if full {
			enc += " full"
		}
		e2, f2, err := parseEpochLine(enc)
		if err != nil || e2 != epoch || f2 != full {
			t.Fatalf("round-trip of %q -> %q: %v %v %v", line, enc, e2, f2, err)
		}
	})
}

// formatHealth renders a health score as the wire does.
func formatHealth(h float64) string { return strconv.FormatFloat(h, 'g', 6, 64) }

// Sanity check that a fuzz-shaped garbage request cannot take the wire
// handler down: the server must answer ERR and keep the session open
// for the next (valid) command on the same connection.
func TestWireSurvivesGarbageThenWorks(t *testing.T) {
	s, addr := startServer(t)
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	br := bufio.NewReader(conn)
	send := func(line string) string {
		if _, err := conn.Write([]byte(line + "\n")); err != nil {
			t.Fatalf("write %q: %v", line, err)
		}
		resp, err := br.ReadString('\n')
		if err != nil {
			t.Fatalf("session died after %q: %v", line, err)
		}
		return strings.TrimSpace(resp)
	}
	if resp := send("BOGUS \x00 stuff"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("garbage got %q, want ERR", resp)
	}
	if resp := send("REGISTER x y -1"); !strings.HasPrefix(resp, "ERR") {
		t.Fatalf("bad ttl got %q, want ERR", resp)
	}
	for _, verb := range []string{"SYNCD 7", "EPOCH"} {
		if resp := send(verb); !strings.HasPrefix(resp, "ERR unknown command") {
			t.Fatalf("%s got %q, want ERR unknown command", verb, resp)
		}
	}
	if resp := send("REGISTER ok h:1 60"); resp != "OK" {
		t.Fatalf("valid command after garbage got %q", resp)
	}
	if got := s.List(); len(got) != 1 || got[0].Name != "ok" {
		t.Fatalf("list = %+v", got)
	}
}
