// Package httpx implements the small slice of HTTP/1.1 that indirect
// routing needs, directly over net.Conn: GET requests in origin form or
// absolute form (for relaying), single-range Range headers (RFC 7233
// subset), and Content-Length-delimited responses.
//
// The paper's mechanism only ever issues two request shapes — "first x
// bytes" and "bytes x through n−1" — and measures when the bytes arrive.
// Hand-rolling the codec keeps every connection in the caller's hands —
// a probe dials its own, a warm continuation reuses exactly the one its
// caller kept — with no pipelining, hidden pool or hidden buffering
// between the byte stream and the throughput clock, which is what the
// measurement needs; net/http's transport machinery would get in the way.
//
// A head costs what it carries: it is assembled in a recycled buffer and
// written with one Write, or appended to a server's buffer ahead of the
// first body bytes it goes out with; it is parsed line by line in place
// in the reader's buffer, so reading one allocates only the strings a
// caller can keep — and none of those for the names and tokens the
// protocol itself uses. The message and its header map come from a pool, and go
// back to it when the owner that read the head calls Release; a caller
// that hands the message on, or keeps it, leaves it to the collector, at
// the cost of one message and one map.
package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"strconv"
	"strings"
	"sync"
)

// Protocol limits, generous for this use.
const (
	maxLineLen    = 8 << 10
	maxHeaderends = 64
)

// Errors surfaced by the codec.
var (
	ErrMalformed      = errors.New("httpx: malformed message")
	ErrUnsatisfiable  = errors.New("httpx: range not satisfiable")
	ErrLineTooLong    = errors.New("httpx: header line too long")
	ErrTooManyHeaders = errors.New("httpx: too many header fields")
)

// Request is an HTTP request: method, target (origin-form "/name" or
// absolute-form "http://host/name" when sent to a relay), and headers.
type Request struct {
	Method string
	Target string
	Proto  string
	Header map[string]string // canonicalized to lower-case keys
}

// NewGet builds a GET request for target with a Host header.
func NewGet(target, host string) *Request {
	return &Request{
		Method: "GET",
		Target: target,
		Proto:  "HTTP/1.1",
		Header: map[string]string{"host": host, "connection": "close"},
	}
}

// SetRange sets a single-range Range header for [off, off+n).
func (r *Request) SetRange(off, n int64) {
	b := append(make([]byte, 0, 48), "bytes="...)
	b = strconv.AppendInt(b, off, 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, off+n-1, 10)
	r.Header["range"] = string(b)
}

// Write serializes the request with a single write to w.
func (r *Request) Write(w io.Writer) error {
	bp := headBufs.Get().(*[]byte)
	b := append((*bp)[:0], r.Method...)
	b = append(b, ' ')
	b = append(b, r.Target...)
	b = append(b, ' ')
	b = append(b, r.Proto...)
	return writeHead(w, bp, appendHeader(b, r.Header))
}

// headBufs recycles the buffers heads are assembled in.
var headBufs = sync.Pool{New: func() any { return new([]byte) }}

// appendHeader ends the start line in b and appends the header fields
// and the blank line that closes the head.
func appendHeader(b []byte, header map[string]string) []byte {
	b = append(b, "\r\n"...)
	for k, v := range header {
		b = append(b, k...)
		b = append(b, ": "...)
		b = append(b, v...)
		b = append(b, "\r\n"...)
	}
	return append(b, "\r\n"...)
}

// writeHead writes the assembled head b and hands its buffer back to
// headBufs through bp, unless an outsized head grew it past what the
// next one will need.
func writeHead(w io.Writer, bp *[]byte, b []byte) error {
	_, err := w.Write(b)
	if cap(b) <= maxLineLen {
		*bp = b
		headBufs.Put(bp)
	}
	return err
}

// ReadRequest parses a request head from br. The caller owns any body,
// and the message: one that is finished with it on the goroutine that
// read it may hand it back with Release.
func ReadRequest(br *bufio.Reader) (*Request, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	method, rest, _ := bytes.Cut(line, space)
	target, proto, ok := bytes.Cut(rest, space)
	if !ok || len(method) == 0 || len(target) == 0 ||
		!bytes.HasPrefix(proto, protoPrefix) || len(proto) <= len(protoPrefix) {
		return nil, fmt.Errorf("%w: bad request line %q", ErrMalformed, line)
	}
	req := requests.Get().(*Request)
	req.Method, req.Target, req.Proto = intern(method), string(target), intern(proto)
	if req.Header == nil {
		req.Header = make(map[string]string)
	}
	if err := readHeader(br, req.Header); err != nil {
		req.Release()
		return nil, err
	}
	return req, nil
}

// Parsed heads are recycled by their owner: ReadRequest and ReadResponse
// take the message, with its emptied header map, from these pools, and
// Release gives it back. A map is the bulk of what a head allocates and
// keeps its buckets when cleared, so a recycled one costs nothing until
// a head carries more fields than it did.
var (
	requests  = sync.Pool{New: func() any { return new(Request) }}
	responses = sync.Pool{New: func() any { return new(Response) }}
)

// maxPooledHeader is the most header fields a message may hold and still
// be recycled: the protocol's own heads carry under ten, and a map grown
// for a peer's outsized head is left to the collector rather than kept
// at that size for every head after it.
const maxPooledHeader = 16

// Release hands a message ReadRequest returned back for reuse. Only its
// owner calls it — the one goroutine that read it — once neither the
// message nor its header map is referenced any more; the strings read
// out of it stay valid. Release on nil does nothing.
func (r *Request) Release() {
	if r == nil || len(r.Header) > maxPooledHeader {
		return
	}
	clear(r.Header)
	*r = Request{Header: r.Header}
	requests.Put(r)
}

// AbsoluteTarget splits an absolute-form target into (hostport, path). It
// reports ok=false for origin-form targets.
func (r *Request) AbsoluteTarget() (hostport, path string, ok bool) {
	t := r.Target
	if !strings.HasPrefix(t, "http://") {
		return "", "", false
	}
	rest := strings.TrimPrefix(t, "http://")
	i := strings.IndexByte(rest, '/')
	if i < 0 {
		return rest, "/", true
	}
	return rest[:i], rest[i:], true
}

// Response is an HTTP response head plus a length-delimited body reader.
type Response struct {
	Status int
	Reason string
	Header map[string]string

	// ContentLength is the declared body length (-1 if absent).
	ContentLength int64

	// Body reads exactly ContentLength bytes when it is >= 0.
	Body io.Reader

	limited io.LimitedReader // Body, when the length is declared
}

// WriteResponseHead serializes a response status line and headers with
// a single write to w.
func WriteResponseHead(w io.Writer, status int, reason string, header map[string]string) error {
	bp := headBufs.Get().(*[]byte)
	return writeHead(w, bp, AppendResponseHead((*bp)[:0], status, reason, header))
}

// AppendResponseHead appends the serialized response head — status
// line, headers, blank line — to b, so that a server can send the head
// in the same write as the first bytes of its body.
func AppendResponseHead(b []byte, status int, reason string, header map[string]string) []byte {
	b = append(b, "HTTP/1.1 "...)
	b = strconv.AppendInt(b, int64(status), 10)
	b = append(b, ' ')
	b = append(b, reason...)
	return appendHeader(b, header)
}

// ReadResponse parses a response head from br and wires up a bounded body
// reader. Like ReadRequest's, the message may go back through Release
// once its owner is done with it and its body.
func ReadResponse(br *bufio.Reader) (*Response, error) {
	line, err := readLine(br)
	if err != nil {
		return nil, err
	}
	proto, rest, ok := bytes.Cut(line, space)
	if !ok || !bytes.HasPrefix(proto, protoPrefix) {
		return nil, fmt.Errorf("%w: bad status line %q", ErrMalformed, line)
	}
	code, reason, _ := bytes.Cut(rest, space)
	status, err := strconv.Atoi(string(code))
	if err != nil {
		return nil, fmt.Errorf("%w: bad status %q", ErrMalformed, code)
	}
	resp := responses.Get().(*Response)
	resp.Status, resp.Reason, resp.ContentLength = status, intern(reason), -1
	if resp.Header == nil {
		resp.Header = make(map[string]string)
	}
	if err := readHeader(br, resp.Header); err != nil {
		resp.Release()
		return nil, err
	}
	if cl, ok := resp.Header["content-length"]; ok {
		n, err := strconv.ParseInt(cl, 10, 64)
		if err != nil || n < 0 {
			resp.Release()
			return nil, fmt.Errorf("%w: bad content-length %q", ErrMalformed, cl)
		}
		resp.ContentLength = n
		resp.limited = io.LimitedReader{R: br, N: n}
		resp.Body = &resp.limited
	} else {
		resp.Body = br
	}
	return resp, nil
}

// Release hands a message ReadResponse returned back for reuse, on the
// terms of Request.Release; its Body must not be read afterwards.
func (r *Response) Release() {
	if r == nil || len(r.Header) > maxPooledHeader {
		return
	}
	clear(r.Header)
	*r = Response{Header: r.Header}
	responses.Put(r)
}

// ParseRange parses a single-range "bytes=a-b" header against an object of
// the given size, returning the satisfiable [off, off+n) window. An empty
// header means the whole object. Suffix ranges ("bytes=-n") are supported.
func ParseRange(h string, size int64) (off, n int64, err error) {
	if h == "" {
		return 0, size, nil
	}
	spec, ok := strings.CutPrefix(h, "bytes=")
	if !ok || strings.Contains(spec, ",") {
		return 0, 0, fmt.Errorf("%w: %q", ErrMalformed, h)
	}
	dash := strings.IndexByte(spec, '-')
	if dash < 0 {
		return 0, 0, fmt.Errorf("%w: %q", ErrMalformed, h)
	}
	first, last := strings.TrimSpace(spec[:dash]), strings.TrimSpace(spec[dash+1:])
	switch {
	case first == "" && last == "":
		return 0, 0, fmt.Errorf("%w: %q", ErrMalformed, h)
	case first == "": // suffix: last n bytes
		sn, err := strconv.ParseInt(last, 10, 64)
		if err != nil || sn <= 0 {
			return 0, 0, fmt.Errorf("%w: %q", ErrMalformed, h)
		}
		if sn > size {
			sn = size
		}
		return size - sn, sn, nil
	default:
		a, err := strconv.ParseInt(first, 10, 64)
		if err != nil || a < 0 {
			return 0, 0, fmt.Errorf("%w: %q", ErrMalformed, h)
		}
		if a >= size {
			return 0, 0, ErrUnsatisfiable
		}
		b := size - 1
		if last != "" {
			if b, err = strconv.ParseInt(last, 10, 64); err != nil || b < a {
				return 0, 0, fmt.Errorf("%w: %q", ErrMalformed, h)
			}
			if b >= size {
				b = size - 1
			}
		}
		return a, b - a + 1, nil
	}
}

// ContentRange formats a Content-Range header value for [off, off+n) of
// size.
func ContentRange(off, n, size int64) string {
	b := append(make([]byte, 0, 72), "bytes "...)
	b = strconv.AppendInt(b, off, 10)
	b = append(b, '-')
	b = strconv.AppendInt(b, off+n-1, 10)
	b = append(b, '/')
	b = strconv.AppendInt(b, size, 10)
	return string(b)
}

var (
	space       = []byte{' '}
	protoPrefix = []byte("HTTP/1.")
)

// readLine returns the next line without its line ending. The bytes sit
// in br's own buffer, good until the next read from br — or in a copy,
// for a line that buffer cannot hold.
func readLine(br *bufio.Reader) ([]byte, error) {
	line, err := br.ReadSlice('\n')
	if err == bufio.ErrBufferFull {
		line, err = readLongLine(br, line)
	}
	if err != nil {
		return nil, err
	}
	if len(line) > maxLineLen {
		return nil, ErrLineTooLong
	}
	for n := len(line); n > 0 && (line[n-1] == '\n' || line[n-1] == '\r'); n-- {
		line = line[:n-1]
	}
	return line, nil
}

// readLongLine finishes a line whose start filled br's buffer. It copies
// no more than it takes to know the line is over maxLineLen; the rest of
// such a line is read and dropped, so the verdict is the same wherever
// the line ends: ErrLineTooLong at its newline, the read error before it.
func readLongLine(br *bufio.Reader, start []byte) ([]byte, error) {
	line := append([]byte(nil), start...)
	for {
		more, err := br.ReadSlice('\n')
		if len(line) <= maxLineLen {
			line = append(line, more...)
		}
		if err != bufio.ErrBufferFull {
			return line, err
		}
	}
}

// readHeader parses header fields into h, which is empty, up to the
// blank line that ends the head.
func readHeader(br *bufio.Reader, h map[string]string) error {
	for {
		line, err := readLine(br)
		if err != nil {
			return err
		}
		if len(line) == 0 {
			return nil
		}
		if len(h) >= maxHeaderends {
			return ErrTooManyHeaders
		}
		i := bytes.IndexByte(line, ':')
		if i <= 0 {
			return fmt.Errorf("%w: header %q", ErrMalformed, line)
		}
		h[headerName(bytes.TrimSpace(line[:i]))] = intern(bytes.TrimSpace(line[i+1:]))
	}
}

// headerName returns the lower-case form of a header name. Names are
// ASCII in practice and lowered on the stack; anything else takes
// strings.ToLower's Unicode route, which is what testdata/heads.golden
// records for such names.
func headerName(name []byte) string {
	var low [32]byte
	if len(name) > len(low) {
		return strings.ToLower(string(name))
	}
	for i, c := range name {
		if c >= 0x80 {
			return strings.ToLower(string(name))
		}
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		low[i] = c
	}
	return intern(low[:len(name)])
}

// intern returns b as a string: the constant, when b is one of the
// protocol's own header names or tokens, so that only what a peer chose
// — targets, addresses, ranges, lengths — is allocated.
func intern(b []byte) string {
	switch string(b) { // the compiler compares in place, without converting
	case "GET":
		return "GET"
	case "HEAD":
		return "HEAD"
	case "HTTP/1.1":
		return "HTTP/1.1"
	case "OK":
		return "OK"
	case "Partial Content":
		return "Partial Content"
	case "host":
		return "host"
	case "connection":
		return "connection"
	case "range":
		return "range"
	case "content-length":
		return "content-length"
	case "content-range":
		return "content-range"
	case "accept-ranges":
		return "accept-ranges"
	case "content-type":
		return "content-type"
	case "accept":
		return "accept"
	case "x-cache":
		return "x-cache"
	case "x-trace":
		return "x-trace"
	case "close":
		return "close"
	case "bytes":
		return "bytes"
	case "hit":
		return "hit"
	case "miss":
		return "miss"
	case "shared":
		return "shared"
	}
	return string(b)
}
