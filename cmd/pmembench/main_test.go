package main

import (
	"flag"
	"os"
	"path/filepath"
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
