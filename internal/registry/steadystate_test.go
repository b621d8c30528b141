package registry

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"
)

// What a registry that has nothing new to say costs: a quiet poll of a
// 100k table allocates nothing, and a heartbeat on a pooled connection —
// client and server side together — stays under 1 KB (it was 4.3 KB
// while the client made a bufio.Writer per command).
func TestSteadyStateAllocCeilings(t *testing.T) {
	s, addr := startServer(t)
	for i := 0; i < 100000; i++ {
		s.RegisterHealth(fmt.Sprintf("relay-%06d", i), "10.0.0.1:1", time.Minute, 0.5)
	}
	since := s.Epoch()
	if got := testing.AllocsPerRun(100, func() { s.ListDelta(since, 0) }); got != 0 {
		t.Errorf("quiet ListDelta on 100k entries: %v allocs, want 0", got)
	}

	c := NewClient(addr, WithPooledConn())
	defer c.Close()
	ctx := context.Background()
	heartbeat := func() {
		if err := c.RegisterHealth(ctx, "relay-000042", "10.0.0.1:1", time.Minute, 0.5); err != nil {
			t.Fatal(err)
		}
	}
	heartbeat() // dial
	const rounds = 200
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < rounds; i++ {
		heartbeat()
	}
	runtime.ReadMemStats(&after)
	if got := (after.TotalAlloc - before.TotalAlloc) / rounds; got >= 1024 {
		t.Errorf("pooled wire RegisterHealth: %d B per heartbeat, want < 1024", got)
	} else {
		t.Logf("pooled wire RegisterHealth: %d B, %d allocs per heartbeat", got, (after.Mallocs-before.Mallocs)/rounds)
	}
}

// The protocol claim behind the delta listing, on the wire: against a
// populated table a quiet LISTD answer is one EPOCH line and the
// terminator, at least 10x smaller than the LISTH answer it replaces.
func TestQuietDeltaIsOneLineOnTheWire(t *testing.T) {
	s, addr := startServer(t)
	for i := 0; i < 1000; i++ {
		s.RegisterHealth(fmt.Sprintf("relay-%06d", i), "10.0.0.1:1", time.Minute, 0.5)
	}
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	br := bufio.NewReader(conn)
	// answer sends one command and returns the lines before the "."
	// terminator and every byte of the answer, terminator included.
	answer := func(cmd string) (lines []string, bytes int) {
		t.Helper()
		if _, err := conn.Write([]byte(cmd)); err != nil {
			t.Fatal(err)
		}
		for {
			line, err := br.ReadString('\n')
			if err != nil {
				t.Fatalf("%q: %v", cmd, err)
			}
			bytes += len(line)
			if line = strings.TrimSpace(line); line == "." {
				return lines, bytes
			}
			lines = append(lines, line)
		}
	}

	listh, full := answer("LISTH\n")
	if len(listh) != 1000 {
		t.Fatalf("LISTH answered %d entries, want 1000", len(listh))
	}
	quiet, delta := answer(fmt.Sprintf("LISTD %d\n", s.Epoch()))
	if want := fmt.Sprintf("EPOCH %d", s.Epoch()); len(quiet) != 1 || quiet[0] != want {
		t.Fatalf("quiet LISTD answered %q, want the one line %q", quiet, want)
	}
	if delta*10 > full {
		t.Fatalf("quiet LISTD is %d bytes against LISTH's %d, want at least 10x smaller", delta, full)
	}
}
