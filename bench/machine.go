package main

import (
	"fmt"
	"os"
	"runtime"
	"strings"
)

// machineShape is what a reader needs to judge whether two outputs are
// comparable. Everything runs on one host over the loopback interface.
type machineShape struct {
	NumCPU     int
	GoMaxProcs int
	GoVersion  string
	Kernel     string
	TCPTWReuse string
	LoadStart  string
	LoadEnd    string
}

func readMachineShape() machineShape {
	return machineShape{
		NumCPU:     runtime.NumCPU(),
		GoMaxProcs: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		Kernel:     procValue("/proc/sys/kernel/osrelease"),
		TCPTWReuse: procValue("/proc/sys/net/ipv4/tcp_tw_reuse"),
		LoadStart:  loadAverage(),
	}
}

// loadAverage returns the 1-minute load average.
func loadAverage() string {
	first, _, _ := strings.Cut(procValue("/proc/loadavg"), " ")
	return first
}

func procValue(path string) string {
	data, err := os.ReadFile(path)
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(data))
}

func (m machineShape) String() string {
	return fmt.Sprintf("loopback, single host: NumCPU=%d GOMAXPROCS=%d %s kernel=%s tcp_tw_reuse=%s load1=%s->%s",
		m.NumCPU, m.GoMaxProcs, m.GoVersion, m.Kernel, m.TCPTWReuse, m.LoadStart, m.LoadEnd)
}
