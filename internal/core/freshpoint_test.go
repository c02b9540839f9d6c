package core

import (
	"bytes"
	"context"
	"fmt"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/machine"
)

// freshPoints is a fixed mix of characterization points, each measured on a
// fresh Bench: both devices and directions, the three patterns, near,
// far-cold and far-warm access, all three pin policies, 1 to 36 threads.
var freshPoints = []Point{
	{Class: access.PMEM, Dir: access.Read, Pattern: access.SeqIndividual, AccessSize: 4096, Threads: 18, Policy: cpu.PinCores},
	{Class: access.PMEM, Dir: access.Write, Pattern: access.SeqGrouped, AccessSize: 64, Threads: 36, Policy: cpu.PinCores},
	{Class: access.PMEM, Dir: access.Read, Pattern: access.Random, AccessSize: 256, Threads: 8, Policy: cpu.PinNUMA},
	{Class: access.PMEM, Dir: access.Read, Pattern: access.SeqIndividual, AccessSize: 4096, Threads: 4, Policy: cpu.PinCores, Far: true},
	{Class: access.PMEM, Dir: access.Read, Pattern: access.SeqIndividual, AccessSize: 4096, Threads: 18, Policy: cpu.PinCores, Far: true, Warm: true},
	{Class: access.PMEM, Dir: access.Write, Pattern: access.SeqIndividual, AccessSize: 1024, Threads: 6, Policy: cpu.PinNone},
	{Class: access.DRAM, Dir: access.Read, Pattern: access.SeqGrouped, AccessSize: 512, Threads: 24, Policy: cpu.PinNUMA},
	{Class: access.DRAM, Dir: access.Write, Pattern: access.Random, AccessSize: 8192, Threads: 1, Policy: cpu.PinCores},
}

// channelOfflineConfig is the default machine with two channels of each
// socket offline for its whole life.
func channelOfflineConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Faults = &faults.Plan{Events: []faults.Event{
		{Type: faults.EvChannelOffline, Socket: 0, Channels: 2},
		{Type: faults.EvChannelOffline, Socket: 1, Channels: 2},
	}}
	return cfg
}

func measureFresh(tb testing.TB, cfg machine.Config, p Point) machine.RunResult {
	b, err := NewBench(cfg)
	if err != nil {
		tb.Fatal(err)
	}
	res, err := b.MeasureDetailed(p)
	if err != nil {
		tb.Fatalf("MeasureDetailed(%+v): %v", p, err)
	}
	return res
}

// BenchmarkFreshPoint measures what one point of the characterization grid
// costs: a fresh NewBench plus MeasureDetailed, cycling over freshPoints.
func BenchmarkFreshPoint(b *testing.B) {
	cfg := machine.DefaultConfig()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		measureFresh(b, cfg, freshPoints[i%len(freshPoints)])
	}
}

// TestFreshPointAllocs guards the per-point cost of the characterization
// grid in a warmed process: a fresh machine borrows run scratch a previous
// machine released, so a point pays for the machine, the bench region, the
// streams and the result, not for a run model and solver built from nothing.
// Race builds skip it: there sync.Pool drops Puts at random, so scratch is
// rebuilt at random and the count is not stable.
func TestFreshPointAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("sync.Pool drops Puts at random under the race detector")
	}
	cfg := machine.DefaultConfig()
	for _, p := range freshPoints {
		measureFresh(t, cfg, p)
	}
	const maxAllocs = 72 // measured 59
	n := testing.AllocsPerRun(20, func() {
		for _, p := range freshPoints {
			measureFresh(t, cfg, p)
		}
	}) / float64(len(freshPoints))
	if n > maxAllocs {
		t.Errorf("a fresh point allocates %.0f/op, want <= %d", n, maxAllocs)
	}
}

// TestMeasurePointsConcurrentLending runs a healthy and a faulted sweep at
// width 4 side by side, so run scratch keeps moving between machines of
// different configurations, and checks that each result is byte-identical
// to the serial sweep's.
func TestMeasurePointsConcurrentLending(t *testing.T) {
	var points []Point
	for _, thr := range []int{1, 4, 18, 36} {
		for _, p := range freshPoints {
			p.Threads = thr
			points = append(points, p)
		}
	}
	cfgs := []machine.Config{machine.DefaultConfig(), channelOfflineConfig()}
	render := func(vals []float64) []byte {
		var buf bytes.Buffer
		for _, v := range vals {
			fmt.Fprintf(&buf, "%x\n", v)
		}
		return buf.Bytes()
	}
	ctx := context.Background()
	serial := make([][]byte, len(cfgs))
	for i, cfg := range cfgs {
		vals, err := MeasurePoints(ctx, cfg, 1, points)
		if err != nil {
			t.Fatal(err)
		}
		serial[i] = render(vals)
	}
	var wg sync.WaitGroup
	concurrent := make([][]byte, len(cfgs))
	errs := make([]error, len(cfgs))
	for i, cfg := range cfgs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			vals, err := MeasurePoints(ctx, cfg, 4, points)
			concurrent[i], errs[i] = render(vals), err
		}()
	}
	wg.Wait()
	for i := range cfgs {
		if errs[i] != nil {
			t.Fatal(errs[i])
		}
		if !bytes.Equal(concurrent[i], serial[i]) {
			t.Errorf("config %d: width-4 sweep beside another sweep differs from the serial one", i)
		}
	}
}
