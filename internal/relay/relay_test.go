package relay

import (
	"errors"
	"testing"
	"testing/quick"
)

func startOrigin(t *testing.T) (*Origin, string) {
	t.Helper()
	o := NewOriginServer()
	o.Put("big.bin", 1_000_000)
	l, err := o.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return o, l.Addr().String()
}

func startRelay(t *testing.T) (*Relay, string) {
	t.Helper()
	r := &Relay{}
	l, err := r.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return r, l.Addr().String()
}

func TestFillRangeDeterministicAndPositionIndependent(t *testing.T) {
	whole := make([]byte, 1024)
	FillRange("obj", 0, whole)
	part := make([]byte, 100)
	FillRange("obj", 500, part)
	for i := range part {
		if part[i] != whole[500+i] {
			t.Fatal("range content depends on starting offset")
		}
	}
	other := make([]byte, 1024)
	FillRange("other", 0, other)
	same := 0
	for i := range whole {
		if whole[i] == other[i] {
			same++
		}
	}
	if same > 100 { // ~4 expected by chance per 1024
		t.Fatalf("different objects share %d/1024 bytes", same)
	}
}

func TestVerifyRangeProperty(t *testing.T) {
	f := func(offRaw uint16, lenRaw uint8) bool {
		off := int64(offRaw)
		p := make([]byte, int(lenRaw)+1)
		FillRange("x", off, p)
		if !VerifyRange("x", off, p) {
			return false
		}
		p[len(p)/2] ^= 0xff
		return !VerifyRange("x", off, p)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestDirectFetch(t *testing.T) {
	o, addr := startOrigin(t)
	body, err := Fetch(nil, addr, "big.bin", 1000, 5000)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 5000 {
		t.Fatalf("got %d bytes", len(body))
	}
	if !VerifyRange("big.bin", 1000, body) {
		t.Fatal("content mismatch")
	}
	if o.BytesServed.Load() < 5000 {
		t.Fatal("origin accounting missing")
	}
}

func TestFetchMissingObject(t *testing.T) {
	_, addr := startOrigin(t)
	if _, err := Fetch(nil, addr, "ghost.bin", 0, 10); err == nil {
		t.Fatal("expected 404 error")
	}
}

func TestFetchViaRelay(t *testing.T) {
	_, originAddr := startOrigin(t)
	r, relayAddr := startRelay(t)
	body, err := FetchVia(nil, relayAddr, originAddr, "big.bin", 2048, 4096)
	if err != nil {
		t.Fatal(err)
	}
	if len(body) != 4096 {
		t.Fatalf("got %d bytes", len(body))
	}
	if !VerifyRange("big.bin", 2048, body) {
		t.Fatal("relayed content mismatch")
	}
	r.WaitIdle()
	if r.BytesRelayed.Load() != 4096 {
		t.Fatalf("relay accounted %d bytes, want 4096", r.BytesRelayed.Load())
	}
	if r.Requests.Load() != 1 {
		t.Fatalf("relay requests = %d", r.Requests.Load())
	}
}

func TestRelayBadGateway(t *testing.T) {
	_, relayAddr := startRelay(t)
	// Point at a dead origin.
	if _, err := FetchVia(nil, relayAddr, "127.0.0.1:1", "x", 0, 10); err == nil {
		t.Fatal("expected bad-gateway error")
	}
}

func TestRelayRejectsOriginForm(t *testing.T) {
	_, relayAddr := startRelay(t)
	// A direct-form request to the relay must be rejected (400), which
	// surfaces as a fetch error.
	if _, err := Fetch(nil, relayAddr, "big.bin", 0, 10); err == nil {
		t.Fatal("relay accepted origin-form request")
	}
}

func TestOriginFullObjectNoRange(t *testing.T) {
	o := NewOriginServer()
	o.Put("small.bin", 1234)
	l, err := o.ServeAddr("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	// Fetch with a range covering everything behaves like a full get.
	body, err := Fetch(nil, l.Addr().String(), "small.bin", 0, 1234)
	if err != nil || len(body) != 1234 {
		t.Fatalf("full fetch: %d bytes, err %v", len(body), err)
	}
}

func TestOriginPutNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewOriginServer().Put("x", -1)
}

func TestOriginUnsatisfiableRange(t *testing.T) {
	_, addr := startOrigin(t)
	if _, err := Fetch(nil, addr, "big.bin", 2_000_000, 10); err == nil {
		t.Fatal("expected 416 error")
	}
}

func TestConcurrentFetches(t *testing.T) {
	_, originAddr := startOrigin(t)
	_, relayAddr := startRelay(t)
	errs := make(chan error, 8)
	for i := 0; i < 8; i++ {
		off := int64(i) * 10_000
		go func() {
			body, err := FetchVia(nil, relayAddr, originAddr, "big.bin", off, 10_000)
			if err == nil && !VerifyRange("big.bin", off, body) {
				err = errContent
			}
			errs <- err
		}()
	}
	for i := 0; i < 8; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

var errContent = errors.New("relayed content mismatch")

func TestHeadSizeDiscovery(t *testing.T) {
	_, addr := startOrigin(t)
	size, err := Head(nil, addr, "big.bin")
	if err != nil {
		t.Fatal(err)
	}
	if size != 1_000_000 {
		t.Fatalf("size = %d, want 1000000", size)
	}
	if _, err := Head(nil, addr, "ghost.bin"); err == nil {
		t.Fatal("HEAD of missing object should fail")
	}
}
