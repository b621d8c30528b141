package httpx

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/bufpool"
)

func TestRequestRoundTrip(t *testing.T) {
	req := NewGet("/obj.bin", "origin.example:80")
	req.SetRange(100, 50)
	var buf bytes.Buffer
	if err := req.Write(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadRequest(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if got.Method != "GET" || got.Target != "/obj.bin" {
		t.Fatalf("parsed %+v", got)
	}
	if got.Header["range"] != "bytes=100-149" {
		t.Fatalf("range header = %q", got.Header["range"])
	}
	if got.Header["host"] != "origin.example:80" {
		t.Fatalf("host header = %q", got.Header["host"])
	}
}

func TestAbsoluteTarget(t *testing.T) {
	req := NewGet("http://origin:8080/obj", "origin:8080")
	host, path, ok := req.AbsoluteTarget()
	if !ok || host != "origin:8080" || path != "/obj" {
		t.Fatalf("got %q %q %v", host, path, ok)
	}
	req2 := NewGet("/obj", "h")
	if _, _, ok := req2.AbsoluteTarget(); ok {
		t.Fatal("origin-form flagged as absolute")
	}
	req3 := NewGet("http://bare-host", "bare-host")
	host, path, ok = req3.AbsoluteTarget()
	if !ok || host != "bare-host" || path != "/" {
		t.Fatalf("bare host: %q %q %v", host, path, ok)
	}
}

func TestResponseRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	err := WriteResponseHead(&buf, 206, "Partial Content", map[string]string{
		"content-length": "5",
		"content-range":  ContentRange(10, 5, 100),
	})
	if err != nil {
		t.Fatal(err)
	}
	buf.WriteString("hello")
	resp, err := ReadResponse(bufio.NewReader(&buf))
	if err != nil {
		t.Fatal(err)
	}
	if resp.Status != 206 || resp.ContentLength != 5 {
		t.Fatalf("resp %+v", resp)
	}
	if resp.Header["content-range"] != "bytes 10-14/100" {
		t.Fatalf("content-range %q", resp.Header["content-range"])
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || string(body) != "hello" {
		t.Fatalf("body %q err %v", body, err)
	}
}

func TestReadResponseNoLength(t *testing.T) {
	raw := "HTTP/1.1 200 OK\r\n\r\nrest"
	resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)))
	if err != nil {
		t.Fatal(err)
	}
	if resp.ContentLength != -1 {
		t.Fatalf("content length = %d, want -1", resp.ContentLength)
	}
}

func TestReadRequestMalformed(t *testing.T) {
	cases := []string{
		"GARBAGE\r\n\r\n",
		"GET /x\r\n\r\n",
		"GET /x SPDY/9\r\n\r\n",
		"GET /x HTTP/1.1\r\nbadheader\r\n\r\n",
	}
	for _, c := range cases {
		if _, err := ReadRequest(bufio.NewReader(strings.NewReader(c))); err == nil {
			t.Errorf("accepted malformed request %q", c)
		}
	}
}

func TestReadResponseMalformed(t *testing.T) {
	cases := []string{
		"NOPE\r\n\r\n",
		"HTTP/1.1 abc OK\r\n\r\n",
		"HTTP/1.1 200 OK\r\ncontent-length: -3\r\n\r\n",
		"HTTP/1.1 200 OK\r\ncontent-length: xyz\r\n\r\n",
	}
	for _, c := range cases {
		if _, err := ReadResponse(bufio.NewReader(strings.NewReader(c))); err == nil {
			t.Errorf("accepted malformed response %q", c)
		}
	}
}

func TestParseRange(t *testing.T) {
	cases := []struct {
		h        string
		off, n   int64
		wantErr  bool
		unsatErr bool
	}{
		{"", 0, 1000, false, false},
		{"bytes=0-99", 0, 100, false, false},
		{"bytes=100-149", 100, 50, false, false},
		{"bytes=900-", 900, 100, false, false},
		{"bytes=900-5000", 900, 100, false, false}, // clamp to end
		{"bytes=-100", 900, 100, false, false},     // suffix
		{"bytes=-5000", 0, 1000, false, false},     // suffix clamp
		{"bytes=1000-", 0, 0, true, true},          // past end
		{"bytes=5-2", 0, 0, true, false},
		{"bytes=a-b", 0, 0, true, false},
		{"bytes=0-5,10-20", 0, 0, true, false}, // multi-range unsupported
		{"bits=0-5", 0, 0, true, false},
		{"bytes=-", 0, 0, true, false},
	}
	for _, c := range cases {
		off, n, err := ParseRange(c.h, 1000)
		if c.wantErr {
			if err == nil {
				t.Errorf("ParseRange(%q): no error", c.h)
			}
			if c.unsatErr && !errors.Is(err, ErrUnsatisfiable) {
				t.Errorf("ParseRange(%q): err = %v, want unsatisfiable", c.h, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("ParseRange(%q): %v", c.h, err)
			continue
		}
		if off != c.off || n != c.n {
			t.Errorf("ParseRange(%q) = (%d,%d), want (%d,%d)", c.h, off, n, c.off, c.n)
		}
	}
}

func TestParseRangeSetRangeInverse(t *testing.T) {
	// SetRange followed by ParseRange must recover (off, n) whenever the
	// range is valid for the object.
	f := func(offRaw, nRaw uint16) bool {
		size := int64(100_000)
		off := int64(offRaw) % size
		n := int64(nRaw)%(size-off) + 1
		req := NewGet("/o", "h")
		req.SetRange(off, n)
		gotOff, gotN, err := ParseRange(req.Header["range"], size)
		return err == nil && gotOff == off && gotN == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestContentRange(t *testing.T) {
	if got := ContentRange(0, 10, 100); got != "bytes 0-9/100" {
		t.Fatalf("got %q", got)
	}
}

func TestHeaderLimits(t *testing.T) {
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < 100; i++ {
		b.WriteString("x-h-" + strings.Repeat("a", i%30) + string(rune('a'+i%26)) + ": v\r\n")
	}
	b.WriteString("\r\n")
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(b.String()))); err == nil {
		t.Fatal("accepted over-long header block")
	}
}

// TestHeadRoundTrips writes heads and reads them back: every field a
// caller set survives the wire, whatever order the map yields it in.
func TestHeadRoundTrips(t *testing.T) {
	requests := []*Request{
		NewGet("/obj.bin", "origin.example:80"),
		{Method: "HEAD", Target: "http://10.0.0.1:8080/a/b.bin", Proto: "HTTP/1.0", Header: map[string]string{}},
		{Method: "GET", Target: "/o", Proto: "HTTP/1.1", Header: map[string]string{
			"host": "h:1", "range": "bytes=5-", "x-trace": "00f1-02-01", "x-empty": "", "x-colon": "a: b:c"}},
	}
	requests[0].SetRange(1<<40, 1<<20)
	for _, want := range requests {
		var wire bytes.Buffer
		if err := want.Write(&wire); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRequest(bufio.NewReader(&wire))
		if err != nil {
			t.Fatalf("%s %s: %v", want.Method, want.Target, err)
		}
		if got.Method != want.Method || got.Target != want.Target || got.Proto != want.Proto ||
			!reflect.DeepEqual(got.Header, want.Header) {
			t.Errorf("wrote %+v, read %+v", want, got)
		}
	}

	responses := []Response{
		{Status: 200, Reason: "OK", ContentLength: 3, Header: map[string]string{"content-length": "3", "accept-ranges": "bytes"}},
		{Status: 206, Reason: "Partial Content", ContentLength: 3, Header: map[string]string{
			"content-length": "3", "content-range": ContentRange(1<<40, 3, 1<<41), "x-cache": "miss"}},
		{Status: 400, Reason: "Bad Request: relay requires absolute-form target", ContentLength: 0,
			Header: map[string]string{"content-length": "0"}},
		{Status: 200, Reason: "", ContentLength: -1, Header: map[string]string{"connection": "close"}},
	}
	for _, want := range responses {
		var wire bytes.Buffer
		if err := WriteResponseHead(&wire, want.Status, want.Reason, want.Header); err != nil {
			t.Fatal(err)
		}
		wire.WriteString("abc")
		got, err := ReadResponse(bufio.NewReader(&wire))
		if err != nil {
			t.Fatalf("%d %s: %v", want.Status, want.Reason, err)
		}
		if got.Status != want.Status || got.Reason != want.Reason || got.ContentLength != want.ContentLength ||
			!reflect.DeepEqual(got.Header, want.Header) {
			t.Errorf("wrote %+v, read %+v", want, got)
		}
		wantBody := "abc" // everything left, without a declared length
		if want.ContentLength >= 0 {
			wantBody = wantBody[:want.ContentLength]
		}
		if body, err := io.ReadAll(got.Body); err != nil || string(body) != wantBody {
			t.Errorf("%d: body %q, %v; want %q", want.Status, body, err, wantBody)
		}
	}
}

// TestLongLineVerdictNeedsItsNewline pins where a long line is judged: at
// its newline it is too long, but a read error before the newline wins —
// and the parser holds no more of such a line than the limit.
func TestLongLineVerdictNeedsItsNewline(t *testing.T) {
	long := "GET /" + strings.Repeat("p", 1<<20)
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(long + " HTTP/1.1\r\n\r\n"))); !errors.Is(err, ErrLineTooLong) {
		t.Errorf("1 MiB request line: %v, want ErrLineTooLong", err)
	}
	if _, err := ReadRequest(bufio.NewReader(strings.NewReader(long))); err != io.EOF {
		t.Errorf("1 MiB request line cut short: %v, want io.EOF", err)
	}
	allocs := testing.AllocsPerRun(10, func() {
		ReadRequest(bufio.NewReaderSize(strings.NewReader(long), 16))
	})
	// The reader, its buffer, and the growth of a copy that stops at the limit.
	if allocs > 16 {
		t.Errorf("a 1 MiB line cost %v allocations: the copy is not bounded", allocs)
	}
}

// TestCodecAllocCeilings is the codec's performance contract, enforced
// where it cannot drift: writing a head allocates nothing once the
// buffer pool is warm, the head round trip the benchmark ladder prices
// (httpx.codec_allocs_per_req) stays under its ceiling with its messages
// left to the collector, and under a tighter one (7 measured) when the
// reader releases them, as the relay, the origin and the client do.
func TestCodecAllocCeilings(t *testing.T) {
	req := NewGet("http://127.0.0.1:8080/ladder.bin", "127.0.0.1:8080")
	req.SetRange(0, 128<<10)
	head := map[string]string{
		"content-length": "131072",
		"accept-ranges":  "bytes",
		"content-range":  ContentRange(0, 128<<10, 1<<30),
	}
	var wire bytes.Buffer
	if got := testing.AllocsPerRun(200, func() {
		wire.Reset()
		req.Write(&wire)
	}); got != 0 && !bufpool.RaceEnabled {
		t.Errorf("Request.Write: %v allocs, want 0", got)
	}
	if got := testing.AllocsPerRun(200, func() {
		wire.Reset()
		WriteResponseHead(&wire, 206, "Partial Content", head)
	}); got != 0 && !bufpool.RaceEnabled {
		t.Errorf("WriteResponseHead: %v allocs, want 0", got)
	}

	br := bufio.NewReader(&wire)
	roundTrip := func(release bool) {
		wire.Reset()
		br.Reset(&wire)
		req := NewGet("http://127.0.0.1:8080/ladder.bin", "127.0.0.1:8080")
		req.SetRange(0, 128<<10)
		if err := req.Write(&wire); err != nil {
			t.Fatal(err)
		}
		got, err := ReadRequest(br)
		if err != nil {
			t.Fatal(err)
		}
		head := map[string]string{
			"content-length": "131072",
			"accept-ranges":  "bytes",
			"content-range":  ContentRange(0, 128<<10, 1<<30),
		}
		if err := WriteResponseHead(&wire, 206, "Partial Content", head); err != nil {
			t.Fatal(err)
		}
		resp, err := ReadResponse(br)
		if err != nil {
			t.Fatal(err)
		}
		if release {
			got.Release()
			resp.Release()
		}
	}
	if got := testing.AllocsPerRun(200, func() { roundTrip(false) }); got > 20 {
		t.Errorf("head round trip: %v allocs, want <= 20", got)
	} else {
		t.Logf("head round trip: %v allocs", got)
	}
	if got := testing.AllocsPerRun(200, func() { roundTrip(true) }); got > 8 && !bufpool.RaceEnabled {
		t.Errorf("released head round trip: %v allocs, want <= 8", got)
	} else {
		t.Logf("released head round trip: %v allocs", got)
	}
}

// TestReleasedHeadsStartClean: a message parsed after a Release carries
// nothing of the one released — not a header field, not a status, not a
// body reader — and Release on nil is a no-op.
func TestReleasedHeadsStartClean(t *testing.T) {
	(*Request)(nil).Release()
	(*Response)(nil).Release()

	read := func(raw string) *Request {
		t.Helper()
		req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}
	for i := 0; i < 100; i++ {
		read("GET http://o:1/a HTTP/1.1\r\nhost: o:1\r\nrange: bytes=0-9\r\nx-trace: t1\r\nx-extra: e\r\n\r\n").Release()
		got := read("HEAD /b HTTP/1.0\r\nhost: h\r\n\r\n")
		want := Request{Method: "HEAD", Target: "/b", Proto: "HTTP/1.0", Header: map[string]string{"host": "h"}}
		if !reflect.DeepEqual(*got, want) {
			t.Fatalf("after a Release: read %+v, want %+v", *got, want)
		}
		got.Release()
	}

	readResp := func(raw string) *Response {
		t.Helper()
		resp, err := ReadResponse(bufio.NewReader(strings.NewReader(raw)))
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}
	for i := 0; i < 100; i++ {
		readResp("HTTP/1.1 206 Partial Content\r\ncontent-length: 3\r\ncontent-range: bytes 0-2/9\r\nx-cache: hit\r\n\r\nabc").Release()
		got := readResp("HTTP/1.1 404 Not Found\r\nconnection: close\r\n\r\nrest")
		if got.Status != 404 || got.Reason != "Not Found" || got.ContentLength != -1 ||
			!reflect.DeepEqual(got.Header, map[string]string{"connection": "close"}) {
			t.Fatalf("after a Release: read %+v", *got)
		}
		if body, err := io.ReadAll(got.Body); err != nil || string(body) != "rest" {
			t.Fatalf("after a Release: body %q, %v; want the unbounded rest", body, err)
		}
		got.Release()
	}
}

// TestOutsizedHeadIsNotPooled: a message whose map grew for a 64-field
// head is dropped at Release, never handed to the next reader, while an
// ordinary one is recycled.
func TestOutsizedHeadIsNotPooled(t *testing.T) {
	var b strings.Builder
	b.WriteString("GET / HTTP/1.1\r\n")
	for i := 0; i < maxHeaderends; i++ {
		fmt.Fprintf(&b, "x-h-%d: v\r\n", i)
	}
	b.WriteString("\r\n")
	big := b.String()
	const small = "GET / HTTP/1.1\r\nhost: h\r\n\r\n"
	read := func(raw string) *Request {
		t.Helper()
		req, err := ReadRequest(bufio.NewReader(strings.NewReader(raw)))
		if err != nil {
			t.Fatal(err)
		}
		return req
	}

	recycled := 0
	for i := 0; i < 100; i++ {
		r := read(big)
		if len(r.Header) != maxHeaderends {
			t.Fatalf("read %d fields, want %d", len(r.Header), maxHeaderends)
		}
		r.Release()
		if next := read(small); next == r {
			t.Fatal("a 64-field message came back from the pool")
		} else {
			next.Release()
			if read(small) == next {
				recycled++
			}
		}
	}
	// The pool may drop what it is given (the race detector makes it drop
	// a quarter on purpose), but not nearly everything.
	if recycled == 0 {
		t.Fatal("an ordinary message was never recycled")
	}
}
