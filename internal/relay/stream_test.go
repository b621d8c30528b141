package relay

import (
	"bytes"
	"errors"
	"io"
	"testing"
)

func TestWriteRangeMatchesFillRange(t *testing.T) {
	var got bytes.Buffer
	n, err := WriteRange(&got, "obj", 12_345, 100_000, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 100_000 || got.Len() != 100_000 {
		t.Fatalf("wrote %d (%d buffered), want 100000", n, got.Len())
	}
	want := make([]byte, 100_000)
	FillRange("obj", 12_345, want)
	if !bytes.Equal(got.Bytes(), want) {
		t.Fatal("streamed content differs from FillRange")
	}
}

func TestWriteRangeReportsPartialOnWriterError(t *testing.T) {
	w := &failAfter{limit: 50_000}
	n, err := WriteRange(w, "obj", 0, 200_000, make([]byte, 4<<10))
	if err == nil {
		t.Fatal("writer error not surfaced")
	}
	if n != w.written {
		t.Fatalf("reported %d written, writer accepted %d", n, w.written)
	}
	if n >= 200_000 || n < 50_000 {
		t.Fatalf("partial count %d out of range", n)
	}
}

// failAfter accepts limit bytes, then fails every write.
type failAfter struct {
	written int64
	limit   int64
}

func (w *failAfter) Write(p []byte) (int, error) {
	if w.written >= w.limit {
		return 0, errors.New("writer full")
	}
	w.written += int64(len(p))
	return len(p), nil
}

func TestVerifierAcceptsStreamedChunks(t *testing.T) {
	const off, total = int64(777), 200_000
	body := make([]byte, total)
	FillRange("obj", off, body)
	v := NewVerifier("obj", off)
	// Feed in uneven chunk sizes to exercise the internal sub-chunking.
	for i, sizes := 0, []int{1, 100, 32<<10 - 7, 64 << 10, total}; i < total; {
		n := sizes[0]
		sizes = append(sizes[1:], sizes[0])
		if i+n > total {
			n = total - i
		}
		if !v.Verify(body[i : i+n]) {
			t.Fatalf("verifier rejected clean chunk at %d", i)
		}
		i += n
	}
	if v.Offset() != off+total {
		t.Fatalf("offset %d after stream, want %d", v.Offset(), off+total)
	}
}

func TestVerifierFlagsCorruptionAndHoldsOffset(t *testing.T) {
	body := make([]byte, 100_000)
	FillRange("obj", 0, body)
	body[70_000] ^= 0xff
	v := NewVerifier("obj", 0)
	if !v.Verify(body[:64<<10]) {
		t.Fatal("clean prefix rejected")
	}
	pos := v.Offset()
	if v.Verify(body[64<<10:]) {
		t.Fatal("corruption not detected")
	}
	// The offset stays at the start of the failed chunk, inside the
	// corrupt window.
	if got := v.Offset(); got != pos {
		t.Fatalf("offset advanced past a failed chunk: %d -> %d", pos, got)
	}
}

func TestVerifierAgreesWithVerifyRange(t *testing.T) {
	body := make([]byte, 50_000)
	FillRange("obj", 123, body)
	v := NewVerifier("obj", 123)
	if got, want := v.Verify(body), VerifyRange("obj", 123, body); got != want {
		t.Fatalf("Verifier = %v, VerifyRange = %v", got, want)
	}
}

func TestOriginStreamsLargeRange(t *testing.T) {
	o := NewOriginServer()
	o.Put("huge.bin", 64<<20)
	l, err := o.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// An 8 MB slice out of a 64 MB object: the origin generates it on the
	// fly through WriteRange.
	const off, n = int64(30 << 20), int64(8 << 20)
	body, err := Fetch(nil, l.Addr().String(), "huge.bin", off, n)
	if err != nil {
		t.Fatal(err)
	}
	if int64(len(body)) != n {
		t.Fatalf("got %d bytes, want %d", len(body), n)
	}
	v := NewVerifier("huge.bin", off)
	if !v.Verify(body) {
		t.Fatal("streamed origin content failed verification")
	}
	if got := o.BytesServed.Load(); got != n {
		t.Fatalf("BytesServed = %d, want %d", got, n)
	}
}

var _ io.Writer = (*failAfter)(nil)
