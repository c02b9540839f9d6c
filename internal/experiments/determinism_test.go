package experiments

import (
	"bytes"
	"context"
	"errors"
	"strconv"
	"strings"
	"testing"
)

// The experiments are the repository's regression surface: EXPERIMENTS.md
// records their output, and the parallel runner promises byte-identical
// results at any -j. These tests lock both properties down.

func detCfg() Config { return Config{SF: 0.02, Quick: true, EmitMetrics: true} }

func runSuite(t *testing.T, cfg Config) string {
	t.Helper()
	var buf bytes.Buffer
	if err := RunAll(context.Background(), cfg, &buf); err != nil {
		t.Fatalf("RunAll: %v", err)
	}
	return buf.String()
}

// TestRunListCanceled locks down the context contract: a canceled context
// fails the run with context.Canceled and the channel still drains.
func TestRunListCanceled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var buf bytes.Buffer
	_, err := RunList(ctx, detCfg(), All(), &buf)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("RunList on canceled ctx: err = %v, want context.Canceled", err)
	}
	if buf.Len() != 0 {
		t.Errorf("canceled run still printed %d bytes", buf.Len())
	}
}

// TestRunMidExperimentCancel verifies an experiment body observes
// cancellation through Config.Err mid-sweep.
func TestRunMidExperimentCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	e, err := ByID("fig03")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(detCfg().WithContext(ctx)); !errors.Is(err, context.Canceled) {
		t.Fatalf("fig03 with canceled ctx: err = %v, want context.Canceled", err)
	}
}

// TestPoolBoundsConcurrency runs the quick suite through a width-1 shared
// pool and checks the output is still the canonical byte stream (the pool
// must serialize, not reorder or drop).
func TestPoolBoundsConcurrency(t *testing.T) {
	cfg := detCfg()
	cfg.Jobs = 4
	cfg.Pool = NewPool(1)
	a := runSuite(t, cfg)
	cfg = detCfg()
	cfg.Jobs = 1
	b := runSuite(t, cfg)
	if a != b {
		t.Fatalf("pooled run differs from serial:\n%s", firstDiff(a, b))
	}
}

// TestRunAllDeterministic runs the whole quick suite twice serially: the
// virtual-time simulation must be bit-reproducible, including every metrics
// counter (float accumulation order is fixed by the serial machine runs
// within each experiment).
func TestRunAllDeterministic(t *testing.T) {
	cfg := detCfg()
	cfg.Jobs = 1
	a := runSuite(t, cfg)
	b := runSuite(t, cfg)
	if a != b {
		t.Fatalf("two serial runs differ:\n%s", firstDiff(a, b))
	}
}

// TestRunAllParallelMatchesSerial is the -j contract: a 4-wide worker pool
// must stream byte-identical output to the serial run — same table bytes,
// same per-experiment metrics, same aggregate.
func TestRunAllParallelMatchesSerial(t *testing.T) {
	serial := detCfg()
	serial.Jobs = 1
	parallel := detCfg()
	parallel.Jobs = 4
	a := runSuite(t, serial)
	b := runSuite(t, parallel)
	if a != b {
		t.Fatalf("-j 4 output differs from serial:\n%s", firstDiff(a, b))
	}
}

// TestSweepWidthMatchesSerial is the intra-experiment parallelism contract:
// the whole quick suite (bandwidth sweeps, SSB, fault plans) must stream
// byte-identical output whether sweep points are evaluated serially or four
// at a time on a shared pool. Metrics are off so the parallel sweep path
// actually engages (recording forces the serial path — see the gate test
// below).
func TestSweepWidthMatchesSerial(t *testing.T) {
	serial := Config{SF: 0.02, Quick: true, Jobs: 1, SweepWidth: 1}
	wide := Config{SF: 0.02, Quick: true, Jobs: 1, SweepWidth: 4, Pool: NewPool(4)}
	a := runSuite(t, serial)
	b := runSuite(t, wide)
	if a != b {
		t.Fatalf("sweep-width 4 output differs from serial:\n%s", firstDiff(a, b))
	}
}

// TestSweepWidthForcedSerialWithMetrics: metrics counters accumulate floats
// in evaluation order, so a recorded run must take the serial sweep path and
// still produce the canonical byte stream even when SweepWidth asks for 4.
func TestSweepWidthForcedSerialWithMetrics(t *testing.T) {
	wide := detCfg()
	wide.Jobs = 1
	wide.SweepWidth = 4
	wide.Pool = NewPool(4)
	if got := wide.sweepWidth(); got != 1 {
		t.Fatalf("sweepWidth() with metrics = %d, want 1 (forced serial)", got)
	}
	serial := detCfg()
	serial.Jobs = 1
	a := runSuite(t, serial)
	b := runSuite(t, wide)
	if a != b {
		t.Fatalf("metrics run with SweepWidth=4 differs from serial:\n%s", firstDiff(a, b))
	}
}

// TestRunAllEmitsMetrics checks the snapshot actually surfaces the headline
// counters the simulation exists to expose, per experiment and in aggregate.
func TestRunAllEmitsMetrics(t *testing.T) {
	out := runSuite(t, detCfg())
	for _, want := range []string{
		"# aggregate — metrics",
		"## fig03 — metrics",
		"xpdimm.s0.xpbuffer.hit_rate",
		"pmem.s0.ch0.read_media_bytes",
		"pmem.s0.ch0.util.mean",
		"upi.crossings",
		"xpdimm.s0.write_amplification.mean",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// firstDiff locates the first differing line so a regression failure is
// diagnosable without dumping two full suite outputs.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	n := len(al)
	if len(bl) < n {
		n = len(bl)
	}
	for i := 0; i < n; i++ {
		if al[i] != bl[i] {
			return "line " + strconv.Itoa(i+1) + ":\n  a: " + al[i] + "\n  b: " + bl[i]
		}
	}
	return "outputs differ in length: " + strconv.Itoa(len(al)) + " vs " + strconv.Itoa(len(bl)) + " lines"
}
