package registry

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
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
				string(appendMaddr(nil, e.MetricsAddr))
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
				string(appendMaddr(nil, de.MetricsAddr))
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

// FuzzSplitMatchesFields holds the wire parsers, which split a line in
// place, to the strings.Fields parsers they replaced (kept below as the
// reference): the same lines accepted and rejected, the same values
// parsed, and — for requests, whose error text goes back on the wire
// after ERR — the same errors.
func FuzzSplitMatchesFields(f *testing.F) {
	for _, seed := range []string{
		"REGISTER  campus  10.0.0.2:8081  60",
		"REGISTER\tcampus\t10.0.0.2:8081\t60\t0.5",
		"REGISTER campus 10.0.0.2:8081 60 -1 10.0.0.2:9081\r",
		"REGISTER a\vb c 60",
		"REGISTER a\u0085b c 60",
		"REGISTER a\u00a0b c 60 1 d e",
		"LISTD 42 10\r",
		"LISTH\v5",
		"\u00a0LIST\u0085",
		"EPOCH 42 full\r",
		"EPOCH\t7",
		"+ campus 10.0.0.2:8081 0.95 up\r",
		"+  campus\t10.0.0.2:8081  -1 down  10.0.0.2:9081",
		"+ a\vb c 0.5 up",
		"- a\u0085b",
		"- a\u00a0b",
		"campus 10.0.0.2:8081",
		"a\xc2\x85b c",
		"\xffa b\xc2",
		"",
		" \t ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		var buf [8]string
		if got, want := splitFields(line, buf[:]), strings.Fields(line); !slices.Equal(got, want[:min(len(want), len(buf))]) {
			t.Fatalf("splitFields(%q) = %q, strings.Fields %q", line, got, want)
		}
		req, err := parseRequest(line)
		wreq, werr := refParseRequest(line)
		if req != wreq || fmt.Sprint(err) != fmt.Sprint(werr) {
			t.Fatalf("parseRequest(%q) = %+v, %v; reference %+v, %v", line, req, err, wreq, werr)
		}
		for _, ranked := range []bool{false, true} {
			e, err := parseListEntry(line, ranked)
			we, werr := refParseListEntry(line, ranked)
			if e != we || (err == nil) != (werr == nil) {
				t.Fatalf("parseListEntry(%q, %v) = %+v, %v; reference %+v, %v", line, ranked, e, err, we, werr)
			}
		}
		epoch, full, err := parseEpochLine(line)
		wepoch, wfull, werr := refParseEpochLine(line)
		if epoch != wepoch || full != wfull || (err == nil) != (werr == nil) {
			t.Fatalf("parseEpochLine(%q) = %d, %v, %v; reference %d, %v, %v", line, epoch, full, err, wepoch, wfull, werr)
		}
		de, err := parseDeltaLine(line)
		wde, werr := refParseDeltaLine(line)
		if de != wde || (err == nil) != (werr == nil) {
			t.Fatalf("parseDeltaLine(%q) = %+v, %v; reference %+v, %v", line, de, err, wde, werr)
		}
	})
}

// The strings.Fields parsers, as the wire used them before it split
// lines in place: FuzzSplitMatchesFields' reference.

func refParseRequest(line string) (request, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return request{}, errors.New("empty command")
	}
	switch fields[0] {
	case "REGISTER":
		if len(fields) < 4 || len(fields) > 6 {
			return request{}, errors.New("usage: REGISTER name addr ttl [health [maddr]]")
		}
		ttlSec, err := strconv.ParseInt(fields[3], 10, 64)
		// A TTL longer than a time.Duration holds would wrap negative.
		if err != nil || ttlSec <= 0 || ttlSec > math.MaxInt64/int64(time.Second) {
			return request{}, errors.New("bad ttl")
		}
		r := request{
			Kind: reqRegister, Name: fields[1], Addr: fields[2],
			TTL: time.Duration(ttlSec) * time.Second, Health: HealthUnreported,
		}
		if len(fields) >= 5 {
			h, err := strconv.ParseFloat(fields[4], 64)
			// The six-field form admits the -1 sentinel so a relay can
			// advertise a metrics address without a health score; the
			// five-field form keeps the original strict range.
			if err != nil || h > 1 || (h < 0 && !(len(fields) == 6 && h == HealthUnreported)) {
				return request{}, errors.New("bad health")
			}
			r.Health = h
		}
		if len(fields) == 6 {
			r.MetricsAddr = fields[5]
		}
		return r, nil
	case "LIST":
		if len(fields) != 1 {
			return request{}, errors.New("usage: LIST")
		}
		return request{Kind: reqList}, nil
	case "LISTH":
		if len(fields) > 2 {
			return request{}, errors.New("usage: LISTH [k]")
		}
		r := request{Kind: reqListH}
		if len(fields) == 2 {
			k, err := strconv.Atoi(fields[1])
			if err != nil || k < 0 {
				return request{}, errors.New("bad k")
			}
			r.K = k
		}
		return r, nil
	case "LISTD":
		if len(fields) != 2 && len(fields) != 3 {
			return request{}, errors.New("usage: LISTD epoch [k]")
		}
		since, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return request{}, errors.New("bad epoch")
		}
		r := request{Kind: reqListD, Since: since}
		if len(fields) == 3 {
			k, err := strconv.Atoi(fields[2])
			if err != nil || k < 0 {
				return request{}, errors.New("bad k")
			}
			r.K = k
		}
		return r, nil
	default:
		return request{}, fmt.Errorf("unknown command %q", fields[0])
	}
}
func refParseListEntry(line string, ranked bool) (Entry, error) {
	fields := strings.Fields(line)
	e := Entry{Health: HealthUnreported}
	switch {
	case !ranked && len(fields) == 2:
		e.Name, e.Addr = fields[0], fields[1]
	case ranked && (len(fields) == 4 || len(fields) == 5):
		e.Name, e.Addr = fields[0], fields[1]
		h, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return Entry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
		}
		e.Health = h
		down, err := parseState(fields[3])
		if err != nil {
			return Entry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
		}
		e.Down = down
		if len(fields) == 5 {
			e.MetricsAddr = fields[4]
		}
	default:
		return Entry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
	}
	return e, nil
}
func refParseEpochLine(line string) (epoch uint64, full bool, err error) {
	fields := strings.Fields(line)
	if len(fields) < 2 || len(fields) > 3 || fields[0] != "EPOCH" {
		return 0, false, fmt.Errorf("%w: %q", ErrBadEntry, line)
	}
	epoch, perr := strconv.ParseUint(fields[1], 10, 64)
	if perr != nil {
		return 0, false, fmt.Errorf("%w: %q", ErrBadEntry, line)
	}
	if len(fields) == 3 {
		if fields[2] != "full" {
			return 0, false, fmt.Errorf("%w: %q", ErrBadEntry, line)
		}
		full = true
	}
	return epoch, full, nil
}
func refParseDeltaLine(line string) (DeltaEntry, error) {
	fields := strings.Fields(line)
	switch {
	case len(fields) == 2 && fields[0] == "-":
		return DeltaEntry{Entry: Entry{Name: fields[1]}, Deleted: true}, nil
	case (len(fields) == 5 || len(fields) == 6) && fields[0] == "+":
		e, err := refParseListEntry(strings.Join(fields[1:], " "), true)
		if err != nil {
			return DeltaEntry{}, err
		}
		return DeltaEntry{Entry: e}, nil
	default:
		return DeltaEntry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
	}
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
