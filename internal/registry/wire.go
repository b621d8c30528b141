package registry

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"net"
	"strconv"
	"strings"
	"time"
	"unicode"
	"unicode/utf8"
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
	reqListD
)

// request is one parsed command line.
type request struct {
	Kind        reqKind
	Name        string        // REGISTER
	Addr        string        // REGISTER
	TTL         time.Duration // REGISTER
	Health      float64       // REGISTER (HealthUnreported when omitted)
	MetricsAddr string        // REGISTER ("" when omitted)
	K           int           // LISTD (0 = all)
	Since       uint64        // LISTD
}

// parseRequest decodes one command line (without trailing newline).
// The error text is what the server sends back after "ERR ".
func parseRequest(line string) (request, error) {
	var buf [7]string // one more than the longest command
	fields := splitFields(line, buf[:])
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
		case reqListD:
			s.DeltaLists.Add(1)
			d := s.changesSince(req.Since)
			s.writeEpochLine(bw, d)
			for i := range d.Entries {
				if de := &d.Entries[i]; de.Deleted {
					fmt.Fprintf(bw, "- %s\n", de.Name)
				} else {
					writeEntryLine(bw, &de.Entry)
				}
			}
			if d.Full { // streamed: see fullDelta
				var buf []byte
				s.fullDelta(req.K, func(es []Entry) { buf = writeEntries(bw, buf, es) })
			}
			bw.WriteString(".\n")
		}
		if bw.Flush() != nil {
			return
		}
		s.lat.Observe(time.Since(start))
	}
}

// writeEpochLine writes a LISTD header, counting full fallbacks.
func (s *Server) writeEpochLine(bw *bufio.Writer, d Delta) {
	bw.WriteString("EPOCH ")
	writeUint(bw, d.Epoch)
	if d.Full {
		s.FullDeltas.Add(1)
		bw.WriteString(" full")
	}
	bw.WriteByte('\n')
}

// appendEntryLine appends one LISTD upsert line:
// "+ name addr health state [maddr]".
func appendEntryLine(dst []byte, e *Entry) []byte {
	dst = append(dst, "+ "...)
	dst = append(dst, e.Name...)
	dst = append(dst, ' ')
	dst = append(dst, e.Addr...)
	dst = append(dst, ' ')
	dst = appendHealth(dst, e.Health)
	dst = append(dst, ' ')
	dst = append(dst, stateWord(e.Down)...)
	dst = appendMaddr(dst, e.MetricsAddr)
	return append(dst, '\n')
}

// writeEntryLine writes one entry line (appendEntryLine) into bw's
// free space. Write errors stick to the writer and surface at the
// caller's Flush.
func writeEntryLine(bw *bufio.Writer, e *Entry) {
	bw.Write(appendEntryLine(bw.AvailableBuffer(), e))
}

// writeEntries writes es as entry lines through bw, formatted into buf
// in chunks of about writeChunk bytes that each reach bw in one Write,
// and returns buf for reuse. A chunk larger than bw's free space goes
// on to the connection without being copied, so a long listing costs
// one write per chunk, not one per 4 KiB of bw's buffer.
func writeEntries(bw *bufio.Writer, buf []byte, es []Entry) []byte {
	buf = buf[:0]
	for i := range es {
		buf = appendEntryLine(buf, &es[i])
		if len(buf) >= writeChunk || i == len(es)-1 {
			bw.Write(buf)
			buf = buf[:0]
		}
	}
	return buf
}

// writeChunk is the size of writeEntries' chunks: eight of bw's
// buffers per write, while the chunk stays small next to the table.
const writeChunk = 32 << 10

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

// isSpace is the wire's one whitespace definition: every line splits
// on it (splitFields) and validTokens rejects a name or address that
// holds it. It is what strings.Fields splits on.
func isSpace(r rune) bool { return unicode.IsSpace(r) }

// asciiSpace is isSpace for single-byte runes, as a table.
var asciiSpace = func() (t [utf8.RuneSelf]bool) {
	for c := range t {
		t[c] = isSpace(rune(c))
	}
	return t
}()

// splitFields splits line around runs of isSpace, as strings.Fields
// does, into dst: it fills at most len(dst) fields and returns them as
// dst's prefix, so a caller whose dst is one longer than the longest
// line it accepts sees every field of a line it accepts and too many
// fields for one it does not. The fields are substrings of line;
// nothing is allocated.
func splitFields(line string, dst []string) []string {
	n, start := 0, -1
	for i := 0; i < len(line) && n < len(dst); {
		space, size := false, 1
		if c := line[i]; c < utf8.RuneSelf {
			space = asciiSpace[c]
		} else {
			var r rune
			r, size = utf8.DecodeRuneInString(line[i:])
			space = isSpace(r)
		}
		switch {
		case !space:
			if start < 0 {
				start = i
			}
		case start >= 0:
			dst[n] = line[start:i]
			n, start = n+1, -1
		}
		i += size
	}
	if start >= 0 && n < len(dst) {
		dst[n] = line[start:]
		n++
	}
	return dst[:n]
}

// --- Response-line parsers (client side) ---

// parseEpochLine decodes the "EPOCH <epoch> [full]" header of a LISTD
// response.
func parseEpochLine(line string) (epoch uint64, full bool, err error) {
	var buf [4]string
	fields := splitFields(line, buf[:])
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
	var buf [7]string
	fields := splitFields(line, buf[:])
	if len(fields) == 2 && fields[0] == "-" {
		return DeltaEntry{Entry: Entry{Name: fields[1]}, Deleted: true}, nil
	}
	if (len(fields) == 5 || len(fields) == 6) && fields[0] == "+" {
		h, err := strconv.ParseFloat(fields[3], 64)
		down := fields[4] == "down"
		if err == nil && (down || fields[4] == "up") {
			de := DeltaEntry{Entry: Entry{Name: fields[1], Addr: fields[2], Health: h, Down: down}}
			if len(fields) == 6 {
				de.MetricsAddr = fields[5]
			}
			return de, nil
		}
	}
	return DeltaEntry{}, fmt.Errorf("%w: %q", ErrBadEntry, line)
}

// appendMaddr appends the optional trailing metrics-addr token of a
// line: " <maddr>" when reported, nothing otherwise — absent, not a
// placeholder, so pre-extension clients' field counts still match.
func appendMaddr(dst []byte, maddr string) []byte {
	if maddr == "" {
		return dst
	}
	return append(append(dst, ' '), maddr...)
}
