package main

import (
	"flag"
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestBenchGateFailureKeepsProfile runs the bench mode against a baseline
// that names an entry the catalogue lacks, so the gate fails. The command
// must report a non-zero status and still leave a complete CPU profile,
// which CI uploads exactly when the gate fails.
func TestBenchGateFailureKeepsProfile(t *testing.T) {
	dir := t.TempDir()
	baseline := filepath.Join(dir, "baseline.json")
	if err := os.WriteFile(baseline, []byte(`{"schema":2,"sf":0.05,"quick":true,"entries":[{"id":"no-such-entry","wall_ms":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	profile := filepath.Join(dir, "cpu.pprof")
	args, cmdline := os.Args, flag.CommandLine
	defer func() { os.Args, flag.CommandLine = args, cmdline }()
	os.Args = []string{"pmembench", "-bench-json", filepath.Join(dir, "bench.json"),
		"-bench-baseline", baseline, "-cpuprofile", profile}
	flag.CommandLine = flag.NewFlagSet("pmembench", flag.ContinueOnError)

	if code := run(); code == 0 {
		t.Fatal("a failing bench comparison must return a non-zero status")
	}
	fi, err := os.Stat(profile)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Size() == 0 {
		t.Fatal("the CPU profile is empty: the gate failure skipped StopCPUProfile")
	}
}

// TestPeakOrderBreaksTiesByName: the -verbose bottleneck report sorts by
// utilization, and resources with the same peak print in name order rather
// than map order.
func TestPeakOrderBreaksTiesByName(t *testing.T) {
	peaks := map[string]float64{"upi-1-0": 0.5, "pmem-media-0": 1, "thread-cores-c3": 0.5, "ssd": 0}
	want := []string{"pmem-media-0", "thread-cores-c3", "upi-1-0", "ssd"}
	for i := 0; i < 20; i++ {
		if got := peakOrder(peaks); !slices.Equal(got, want) {
			t.Fatalf("peakOrder = %v, want %v", got, want)
		}
	}
}
