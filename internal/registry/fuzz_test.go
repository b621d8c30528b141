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
		"LIST", // not verbs: LIST and LISTH get "unknown command"
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
		case reqListD:
			if req.K < 0 {
				t.Fatalf("parseRequest(%q) accepted negative k: %+v", line, req)
			}
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
		if de2.Name != de.Name || de2.Deleted != de.Deleted || de2.Addr != de.Addr || de2.Down != de.Down ||
			de2.MetricsAddr != de.MetricsAddr {
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
		h, err := strconv.ParseFloat(fields[3], 64)
		if err != nil || (fields[4] != "up" && fields[4] != "down") {
			return DeltaEntry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
		}
		e := Entry{Name: fields[1], Addr: fields[2], Health: h, Down: fields[4] == "down"}
		if len(fields) == 6 {
			e.MetricsAddr = fields[5]
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
	for _, verb := range []string{"SYNCD 7", "EPOCH", "LIST", "LISTH 5"} {
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
	// The listing verb still answers on the same session.
	if resp := send("LISTD 0"); !strings.HasPrefix(resp, "EPOCH ") || !strings.HasSuffix(resp, " full") {
		t.Fatalf("LISTD 0 after the rejections got %q, want a full EPOCH line", resp)
	}
	for _, want := range []string{"+ ok h:1 -1 up", "."} {
		if line, err := br.ReadString('\n'); err != nil || strings.TrimSpace(line) != want {
			t.Fatalf("LISTD 0 body line %q, %v; want %q", line, err, want)
		}
	}
}
