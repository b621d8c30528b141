package registry

import (
	"bufio"
	"errors"
	"fmt"
	"net"
	"strconv"
	"strings"
	"time"
)

// The wire layer: a line-based protocol over TCP. Sessions carry any
// number of commands (a pooled client holds one connection open and the
// per-command deadline resets on every line), and every request and
// response line goes through the typed parsers below — the same
// functions the fuzz tests hammer — so the server and client cannot
// drift apart on grammar.

// reqKind enumerates the wire commands.
type reqKind int

const (
	reqRegister reqKind = iota
	reqList
	reqListH
	reqListD
	reqEpoch
	reqSyncD
)

// request is one parsed command line.
type request struct {
	Kind        reqKind
	Name        string        // REGISTER
	Addr        string        // REGISTER
	TTL         time.Duration // REGISTER
	Health      float64       // REGISTER (HealthUnreported when omitted)
	MetricsAddr string        // REGISTER ("" when omitted)
	K           int           // LISTH/LISTD (0 = all)
	Since       uint64        // LISTD/SYNCD
}

// parseRequest decodes one command line (without trailing newline).
// The error text is what the server sends back after "ERR ".
func parseRequest(line string) (request, error) {
	fields := strings.Fields(line)
	if len(fields) == 0 {
		return request{}, errors.New("empty command")
	}
	switch fields[0] {
	case "REGISTER":
		if len(fields) < 4 || len(fields) > 6 {
			return request{}, errors.New("usage: REGISTER name addr ttl [health [maddr]]")
		}
		ttlSec, err := strconv.Atoi(fields[3])
		if err != nil || ttlSec <= 0 {
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
	case "EPOCH":
		if len(fields) != 1 {
			return request{}, errors.New("usage: EPOCH")
		}
		return request{Kind: reqEpoch}, nil
	case "SYNCD":
		if len(fields) != 2 {
			return request{}, errors.New("usage: SYNCD epoch")
		}
		since, err := strconv.ParseUint(fields[1], 10, 64)
		if err != nil {
			return request{}, errors.New("bad epoch")
		}
		return request{Kind: reqSyncD, Since: since}, nil
	default:
		return request{}, fmt.Errorf("unknown command %q", fields[0])
	}
}

// Serve accepts registry sessions until the listener closes.
func (s *Server) Serve(l net.Listener) error {
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.handle(conn)
	}
}

// ServeAddr starts the registry on addr and returns its listener.
func (s *Server) ServeAddr(addr string) (net.Listener, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, err
	}
	go s.Serve(l)
	return l, nil
}

func (s *Server) timeout() time.Duration {
	if s.Timeout > 0 {
		return s.Timeout
	}
	return DefaultTimeout
}

// handle runs one session: commands until EOF, error, or an idle
// period longer than the per-command timeout. Legacy one-shot clients
// close after the first response; pooled clients keep going.
func (s *Server) handle(conn net.Conn) {
	defer conn.Close()
	br := bufio.NewReader(conn)
	bw := bufio.NewWriter(conn)
	for {
		conn.SetDeadline(time.Now().Add(s.timeout()))
		line, err := br.ReadString('\n')
		if err != nil {
			return
		}
		start := time.Now()
		req, perr := parseRequest(strings.TrimSuffix(line, "\n"))
		if perr != nil {
			fmt.Fprintf(bw, "ERR %v\n", perr)
			if bw.Flush() != nil {
				return
			}
			s.lat.Observe(time.Since(start))
			continue
		}
		switch req.Kind {
		case reqRegister:
			if err := s.RegisterFull(req.Name, req.Addr, req.TTL, req.Health, req.MetricsAddr); err != nil {
				fmt.Fprintf(bw, "ERR %v\n", err)
			} else {
				s.Registrations.Add(1)
				bw.WriteString("OK\n")
			}
		case reqList:
			s.Lists.Add(1)
			for _, e := range s.List() {
				fmt.Fprintf(bw, "%s %s\n", e.Name, e.Addr)
			}
			bw.WriteString(".\n")
		case reqListH:
			s.Lists.Add(1)
			for _, e := range s.rankedAll(req.K) {
				writeEntryLine(bw, "", e)
			}
			bw.WriteString(".\n")
		case reqListD:
			s.DeltaLists.Add(1)
			d := s.ListDelta(req.Since, req.K)
			s.writeEpochLine(bw, d)
			for _, de := range d.Entries {
				if de.Deleted {
					fmt.Fprintf(bw, "- %s\n", de.Name)
				} else {
					writeEntryLine(bw, "+ ", de.Entry)
				}
			}
			bw.WriteString(".\n")
		case reqEpoch:
			fmt.Fprintf(bw, "EPOCH %d %d\n", s.Epoch(), s.Digest())
		case reqSyncD:
			s.Syncs.Add(1)
			d := s.SyncDelta(req.Since)
			s.writeEpochLine(bw, d)
			for _, de := range d.Entries {
				if de.Deleted {
					fmt.Fprintf(bw, "- %s %d\n", de.Name, de.LastSeen.UnixNano())
				} else {
					fmt.Fprintf(bw, "+ %s %s %s %d %d%s\n", de.Name, de.Addr, formatHealth(de.Health),
						de.LastSeen.UnixNano(), int64(de.TTL), maddrSuffix(de.MetricsAddr))
				}
			}
			bw.WriteString(".\n")
		}
		if bw.Flush() != nil {
			return
		}
		s.lat.Observe(time.Since(start))
	}
}

// writeEpochLine writes a LISTD/SYNCD header, counting full fallbacks.
func (s *Server) writeEpochLine(bw *bufio.Writer, d Delta) {
	bw.WriteString("EPOCH ")
	writeUint(bw, d.Epoch)
	if d.Full {
		s.FullDeltas.Add(1)
		bw.WriteString(" full")
	}
	bw.WriteByte('\n')
}

// writeEntryLine writes one LISTH body line, or with prefix "+ " one
// LISTD upsert: "name addr health state [maddr]". Write errors stick to
// the writer and surface at the caller's Flush.
func writeEntryLine(bw *bufio.Writer, prefix string, e Entry) {
	bw.WriteString(prefix)
	bw.WriteString(e.Name)
	bw.WriteByte(' ')
	bw.WriteString(e.Addr)
	bw.WriteByte(' ')
	bw.Write(appendHealth(bw.AvailableBuffer(), e.Health))
	bw.WriteByte(' ')
	bw.WriteString(stateWord(e.Down))
	bw.WriteString(maddrSuffix(e.MetricsAddr))
	bw.WriteByte('\n')
}

func writeUint(bw *bufio.Writer, v uint64) {
	bw.Write(strconv.AppendUint(bw.AvailableBuffer(), v, 10))
}

// writeCommand writes one request line — the verb, then each argument
// after a space — into the connection's writer and flushes it.
func writeCommand(bw *bufio.Writer, verb string, args ...uint64) error {
	bw.WriteString(verb)
	for _, a := range args {
		bw.WriteByte(' ')
		writeUint(bw, a)
	}
	bw.WriteByte('\n')
	return bw.Flush()
}

// --- Response-line parsers (client side) ---

// parseListEntry decodes one LIST ("name addr") or LISTH
// ("name addr health state [maddr]") body line.
func parseListEntry(line string, ranked bool) (Entry, error) {
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

func parseState(word string) (down bool, err error) {
	switch word {
	case "up":
		return false, nil
	case "down":
		return true, nil
	default:
		return false, fmt.Errorf("bad state %q", word)
	}
}

// parseEpochLine decodes the "EPOCH <epoch> [full]" header of a
// LISTD/SYNCD response.
func parseEpochLine(line string) (epoch uint64, full bool, err error) {
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

// parseDeltaLine decodes one LISTD body line:
// "+ name addr health state [maddr]" or "- name".
func parseDeltaLine(line string) (DeltaEntry, error) {
	fields := strings.Fields(line)
	switch {
	case len(fields) == 2 && fields[0] == "-":
		return DeltaEntry{Entry: Entry{Name: fields[1]}, Deleted: true}, nil
	case (len(fields) == 5 || len(fields) == 6) && fields[0] == "+":
		e, err := parseListEntry(strings.Join(fields[1:], " "), true)
		if err != nil {
			return DeltaEntry{}, err
		}
		return DeltaEntry{Entry: e}, nil
	default:
		return DeltaEntry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
	}
}

// parseSyncLine decodes one SYNCD body line:
// "+ name addr health lastseen-ns ttl-ns [maddr]" or
// "- name lastseen-ns".
func parseSyncLine(line string) (DeltaEntry, error) {
	fields := strings.Fields(line)
	switch {
	case len(fields) == 3 && fields[0] == "-":
		ns, err := strconv.ParseInt(fields[2], 10, 64)
		if err != nil {
			return DeltaEntry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
		}
		return DeltaEntry{
			Entry:   Entry{Name: fields[1], LastSeen: time.Unix(0, ns)},
			Deleted: true,
		}, nil
	case (len(fields) == 6 || len(fields) == 7) && fields[0] == "+":
		h, err := strconv.ParseFloat(fields[3], 64)
		if err != nil || (h != HealthUnreported && (h < 0 || h > 1)) {
			return DeltaEntry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
		}
		ns, err := strconv.ParseInt(fields[4], 10, 64)
		if err != nil {
			return DeltaEntry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
		}
		ttl, err := strconv.ParseInt(fields[5], 10, 64)
		if err != nil || ttl <= 0 {
			return DeltaEntry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
		}
		if strings.ContainsAny(fields[1]+fields[2], " \t\r\n") || fields[1] == "" || fields[2] == "" {
			return DeltaEntry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
		}
		e := Entry{
			Name: fields[1], Addr: fields[2], Health: h,
			LastSeen: time.Unix(0, ns), TTL: time.Duration(ttl),
		}
		if len(fields) == 7 {
			e.MetricsAddr = fields[6]
		}
		return DeltaEntry{Entry: e}, nil
	default:
		return DeltaEntry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
	}
}

// maddrSuffix renders the optional trailing metrics-addr token of a
// response line: " <maddr>" when reported, "" otherwise — absent, not
// a placeholder, so pre-extension clients' field counts still match.
func maddrSuffix(maddr string) string {
	if maddr == "" {
		return ""
	}
	return " " + maddr
}
