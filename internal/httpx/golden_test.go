package httpx

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strings"
	"testing"
)

// The head parser's behaviour is pinned as a golden table recorded from
// the ReadString/ToLower/TrimSpace parser it replaced: for every head
// below, whether it is accepted, which exported error a rejection is, and
// every parsed field. `go test ./internal/httpx -run GoldenHeads -update`
// rewrites testdata/heads.golden from the parser in the tree — do that
// only to change the codec's behaviour on purpose.
var update = flag.Bool("update", false, "rewrite testdata/heads.golden from the current parser")

type goldenHead struct {
	name     string
	response bool
	raw      string
}

func goldenHeads() []goldenHead {
	req := func(name, raw string) goldenHead { return goldenHead{name, false, raw} }
	resp := func(name, raw string) goldenHead { return goldenHead{name, true, raw} }
	headers := func(n int, line func(i int) string) string {
		var b strings.Builder
		b.WriteString("GET / HTTP/1.1\r\n")
		for i := 0; i < n; i++ {
			b.WriteString(line(i))
		}
		b.WriteString("\r\n")
		return b.String()
	}
	distinct := func(i int) string { return fmt.Sprintf("x-h-%d: v%d\r\n", i, i) }
	return []goldenHead{
		req("plain", "GET / HTTP/1.1\r\nhost: h\r\n\r\n"),
		req("absolute-target", "GET http://127.0.0.1:8080/obj.bin HTTP/1.1\r\nhost: 127.0.0.1:8080\r\nrange: bytes=0-131071\r\n\r\n"),
		req("head-method", "HEAD /x HTTP/1.0\r\nconnection: close\r\n\r\n"),
		req("no-headers", "GET /x HTTP/1.1\r\n\r\n"),
		req("mixed-case-names", "GET / HTTP/1.1\r\nHoSt: h\r\nRANGE: bytes=0-9\r\nX-Trace: AbC\r\n\r\n"),
		req("padded-names", "GET / HTTP/1.1\r\n  host  :   h  \r\n\tx-tab\t:\tv\t\r\n\r\n"),
		req("empty-value", "GET / HTTP/1.1\r\nx-empty:\r\nx-blank:   \r\n\r\n"),
		req("empty-name-after-trim", "GET / HTTP/1.1\r\n : v\r\n\r\n"),
		req("duplicate-names-last-wins", "GET / HTTP/1.1\r\nx-a: 1\r\nx-a: 2\r\nX-A: 3\r\n\r\n"),
		req("bare-lf", "GET / HTTP/1.1\nhost: h\nrange: bytes=1-2\n\n"),
		req("mixed-endings", "GET / HTTP/1.1\r\nhost: h\nx-a: b\r\n\n"),
		req("doubled-cr", "GET / HTTP/1.1\r\r\nhost: h\r\r\r\n\r\r\n"),
		req("cr-inside-value", "GET / HTTP/1.1\r\nx-a: b\rc\r\n\r\n"),
		req("colon-in-value", "GET / HTTP/1.1\r\nx-t: a:b: c\r\n\r\n"),
		req("space-inside-name", "GET / HTTP/1.1\r\na b: v\r\n\r\n"),
		req("colon-first", "GET / HTTP/1.1\r\n: novalue\r\n\r\n"),
		req("no-colon", "GET /x HTTP/1.1\r\nbadheader\r\n\r\n"),
		req("non-ascii-name", "GET / HTTP/1.1\r\nÜnÏ: v\r\n\r\n"),
		req("kelvin-sign-name", "GET / HTTP/1.1\r\n\u212a: v\r\n\r\n"),
		req("invalid-utf8-name", "GET / HTTP/1.1\r\n\xff\xfeX: v\r\n\r\n"),
		req("nbsp-padding", "GET / HTTP/1.1\r\n\u00a0Host\u00a0:\u00a0h\u2003\r\n\r\n"),
		req("non-ascii-value", "GET / HTTP/1.1\r\nx-a:  ÜÏ \r\n\r\n"),
		req("long-name", "GET / HTTP/1.1\r\nX-A-Header-Name-Longer-Than-Any-The-Protocol-Uses: v\r\n\r\n"),
		req("line-9000", "GET / HTTP/1.1\r\nx-big: "+strings.Repeat("a", 9000)+"\r\n\r\n"),
		req("line-9000-no-newline", strings.Repeat("A", 9000)),
		req("line-at-limit", "GET / HTTP/1.1\r\nx-big: "+strings.Repeat("a", maxLineLen-len("x-big: \r\n"))+"\r\n\r\n"),
		req("line-over-limit", "GET / HTTP/1.1\r\nx-big: "+strings.Repeat("a", maxLineLen-len("x-big: \r\n")+1)+"\r\n\r\n"),
		req("line-5000-accepted", "GET / HTTP/1.1\r\nx-big: "+strings.Repeat("b", 5000)+"\r\nhost: h\r\n\r\n"),
		req("request-line-9000", "GET /"+strings.Repeat("p", 9000)+" HTTP/1.1\r\n\r\n"),
		req("headers-64", headers(64, distinct)),
		req("headers-65", headers(65, distinct)),
		req("headers-100-same-name", headers(100, func(i int) string { return fmt.Sprintf("x-same: %d\r\n", i) })),
		req("eof-empty", ""),
		req("eof-in-request-line", "GET"),
		req("eof-in-headers", "GET / HTTP/1.1\r\nhost: h\r\n"),
		req("eof-mid-header-line", "GET / HTTP/1.1\r\nhost: h"),
		req("blank-first-line", "\r\n\r\n"),
		req("one-word-line", "GARBAGE\r\n\r\n"),
		req("no-proto", "GET /x\r\n\r\n"),
		req("wrong-proto", "GET /x SPDY/9\r\n\r\n"),
		req("empty-method", "  HTTP/1.\n\n"),
		req("bare-proto-prefix", "GET / HTTP/1.\r\n\r\n"),
		req("double-space", "GET  / HTTP/1.1\r\n\r\n"),
		req("proto-with-tail", "GET / HTTP/1.1 extra words\r\n\r\n"),

		resp("ok", "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n\r\nhello"),
		resp("partial", "HTTP/1.1 206 Partial Content\r\ncontent-length: 131072\r\naccept-ranges: bytes\r\ncontent-range: bytes 0-131071/1073741824\r\n\r\n"),
		resp("no-reason", "HTTP/1.1 206\r\ncontent-range: bytes 0-4/10\r\n\r\n"),
		resp("empty-reason", "HTTP/1.1 206 \r\n\r\n"),
		resp("long-reason", "HTTP/1.1 400 Bad Request: relay requires absolute-form target\r\ncontent-length: 0\r\n\r\n"),
		resp("http-1-0", "HTTP/1.0 404 Not Found\r\n\r\n"),
		resp("bare-proto-prefix", "HTTP/1. 200 OK\r\n\r\n"),
		resp("no-length", "HTTP/1.1 200 OK\r\n\r\nrest"),
		resp("mixed-case-length", "HTTP/1.1 200 OK\r\nContent-Length:  7 \r\nConnection: Close\r\n\r\n"),
		resp("plus-length", "HTTP/1.1 200 OK\r\ncontent-length: +5\r\n\r\n"),
		resp("negative-length", "HTTP/1.1 200 OK\r\ncontent-length: -3\r\n\r\n"),
		resp("word-length", "HTTP/1.1 200 OK\r\ncontent-length: xyz\r\n\r\n"),
		resp("overflow-length", "HTTP/1.1 200 OK\r\ncontent-length: 99999999999999999999\r\n\r\n"),
		resp("empty-length", "HTTP/1.1 200 OK\r\ncontent-length:\r\n\r\n"),
		resp("duplicate-length-last-wins", "HTTP/1.1 200 OK\r\ncontent-length: 1\r\ncontent-length: 2\r\n\r\n"),
		resp("not-http", "NOPE\r\n\r\n"),
		resp("garbage-no-newline", "garbage"),
		resp("word-status", "HTTP/1.1 abc OK\r\n\r\n"),
		resp("overflow-status", "HTTP/1.1 99999999999999999999 X\r\n\r\n"),
		resp("negative-status", "HTTP/1.1 -5 X\r\n\r\n"),
		resp("plus-status", "HTTP/1.1 +200 OK\r\n\r\n"),
		resp("double-space-status", "HTTP/1.1  200 OK\r\n\r\n"),
		resp("status-line-9000", "HTTP/1.1 200 "+strings.Repeat("r", 9000)+"\r\n\r\n"),
		resp("bare-lf", "HTTP/1.1 200 OK\ncontent-length: 0\n\n"),
		resp("colon-first", "HTTP/1.1 200 OK\r\n: novalue\r\n\r\n"),
		resp("eof-in-headers", "HTTP/1.1 200 OK\r\ncontent-length: 5\r\n"),
	}
}

// errClass names which exported error err is, the identity callers test
// with errors.Is; anything else is spelled out.
func errClass(err error) string {
	switch {
	case errors.Is(err, ErrMalformed):
		return "malformed"
	case errors.Is(err, ErrUnsatisfiable):
		return "unsatisfiable"
	case errors.Is(err, ErrLineTooLong):
		return "line-too-long"
	case errors.Is(err, ErrTooManyHeaders):
		return "too-many-headers"
	}
	return "other(" + err.Error() + ")"
}

func renderHeader(h map[string]string) string {
	keys := make([]string, 0, len(h))
	for k := range h {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		v := h[k]
		if len(v) > 40 {
			v = fmt.Sprintf("%s...(%d bytes)", v[:40], len(v))
		}
		fmt.Fprintf(&b, " %q=%q", k, v)
	}
	return b.String()
}

func (g goldenHead) render() string {
	br := bufio.NewReader(strings.NewReader(g.raw))
	if g.response {
		resp, err := ReadResponse(br)
		if err != nil {
			return "reject " + errClass(err)
		}
		return fmt.Sprintf("accept status=%d reason=%.40q length=%d header:%s",
			resp.Status, resp.Reason, resp.ContentLength, renderHeader(resp.Header))
	}
	r, err := ReadRequest(br)
	if err != nil {
		return "reject " + errClass(err)
	}
	return fmt.Sprintf("accept method=%q target=%.40q proto=%q header:%s",
		r.Method, r.Target, r.Proto, renderHeader(r.Header))
}

func TestGoldenHeads(t *testing.T) {
	const path = "testdata/heads.golden"
	var got strings.Builder
	for _, g := range goldenHeads() {
		kind := "request"
		if g.response {
			kind = "response"
		}
		fmt.Fprintf(&got, "%s/%s\t%s\n", kind, g.name, g.render())
	}
	if *update {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	gotLines := strings.Split(strings.TrimSuffix(got.String(), "\n"), "\n")
	if len(gotLines) < 40 || len(gotLines) != len(wantLines) {
		t.Fatalf("%d heads rendered, %d recorded (at least 40 wanted)", len(gotLines), len(wantLines))
	}
	for i := range gotLines {
		if gotLines[i] != wantLines[i] {
			t.Errorf("head %d differs from the recorded parser:\n got %s\nwant %s", i, gotLines[i], wantLines[i])
		}
	}
}
