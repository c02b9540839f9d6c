package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"os"
	"runtime"
	"time"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/faults"
	"repro/internal/machine"
)

// The characterization grid of the paper's Sections 3-5: every point is one
// value on each axis. A point is stored as its index in the mixed-radix
// numbering of the axes, in this order.
var (
	gridClasses  = []access.DeviceClass{access.PMEM, access.DRAM}
	gridDirs     = []access.Direction{access.Read, access.Write}
	gridPatterns = []access.Pattern{access.SeqGrouped, access.SeqIndividual, access.Random}
	gridSizes    = []int64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	gridThreads  = []int{1, 2, 4, 6, 8, 12, 18, 24, 30, 36}
	gridPins     = []cpu.PinPolicy{cpu.PinCores, cpu.PinNUMA, cpu.PinNone}
	gridNUMA     = []string{"near", "far-cold", "far-warm"}
	gridFaults   = []string{"healthy", "channel-offline"}
)

// axisLens is the cardinality of each axis; the last one is the fault plan,
// which a sweep never walks (it is fixed per sweep).
var axisLens = []int{len(gridClasses), len(gridDirs), len(gridPatterns), len(gridSizes),
	len(gridThreads), len(gridPins), len(gridNUMA), len(gridFaults)}

const faultAxis = 7

var gridSize = func() int {
	n := 1
	for _, l := range axisLens {
		n *= l
	}
	return n
}()

// gridCoords splits a grid index into one value index per axis.
func gridCoords(idx int) [8]int {
	var c [8]int
	for a := len(axisLens) - 1; a >= 0; a-- {
		c[a] = idx % axisLens[a]
		idx /= axisLens[a]
	}
	return c
}

func gridIndex(c [8]int) int {
	idx := 0
	for a, l := range axisLens {
		idx = idx*l + c[a]
	}
	return idx
}

// gridPoint returns the core.Point at a grid index and whether it runs on
// the faulted machine.
func gridPoint(idx int) (core.Point, bool) {
	c := gridCoords(idx)
	p := core.Point{
		Class:      gridClasses[c[0]],
		Dir:        gridDirs[c[1]],
		Pattern:    gridPatterns[c[2]],
		AccessSize: gridSizes[c[3]],
		Threads:    gridThreads[c[4]],
		Policy:     gridPins[c[5]],
		Far:        c[6] > 0,
		Warm:       c[6] == 2,
	}
	return p, c[faultAxis] == 1
}

// faultedConfig is the machine every faulted sweep runs on: two channels of
// each socket offline from t=0 for the machine's whole life. Active faults
// switch off the solver's warm start and steady fast-forward and clamp its
// horizons, so the same machine/fluid code runs a different path.
func faultedConfig() machine.Config {
	cfg := machine.DefaultConfig()
	cfg.Faults = &faults.Plan{Events: []faults.Event{
		{Type: faults.EvChannelOffline, Socket: 0, Channels: 2},
		{Type: faults.EvChannelOffline, Socket: 1, Channels: 2},
	}}
	return cfg
}

// val01Anchors are the 12 headline points of the val01 scorecard with the
// paper's values (GB/s); every one is a grid point.
var val01Anchors = []struct {
	paper float64
	c     [8]int // class, dir, pattern, size, threads, pin, numa, fault
}{
	{40, [8]int{0, 0, 1, 6, 7, 0, 0, 0}},   // seq read peak, 4 KiB x 18
	{34, [8]int{0, 0, 1, 6, 4, 0, 0, 0}},   // seq read, 8 threads
	{12.6, [8]int{0, 1, 1, 6, 3, 0, 0, 0}}, // seq write peak, 6 threads
	{5.5, [8]int{0, 1, 1, 6, 9, 0, 0, 0}},  // seq write 36 threads 4 KiB
	{2.6, [8]int{0, 1, 0, 0, 9, 0, 0, 0}},  // grouped write 64 B x 36
	{9.6, [8]int{0, 1, 1, 0, 9, 0, 0, 0}},  // individual write 64 B x 36
	{26.7, [8]int{0, 0, 2, 6, 9, 0, 0, 0}}, // random read 4 KiB x 36
	{8.4, [8]int{0, 1, 2, 6, 3, 0, 0, 0}},  // random write 4 KiB x 6
	{33, [8]int{0, 0, 1, 6, 7, 0, 2, 0}},   // warm far read
	{8, [8]int{0, 0, 1, 6, 2, 0, 1, 0}},    // cold far read, 4 threads
	{9, [8]int{0, 0, 1, 6, 4, 2, 0, 0}},    // unpinned read, 8 threads
	{100, [8]int{1, 0, 1, 6, 7, 0, 0, 0}},  // DRAM near read
}

// faultedShare is the share of sweeps that run on the faulted machine.
const faultedShare = 0.25

// sweepPlan yields the seeded stream of grid points: each sweep fixes a
// random base point, picks one axis and walks all its values in order, so
// consecutive points differ in one axis as in the paper's figures. A
// quarter of the sweeps run on the faulted machine.
type sweepPlan struct {
	rng   *rand.Rand
	queue []int
}

func newSweepPlan(seed int64) *sweepPlan {
	return &sweepPlan{rng: rand.New(rand.NewSource(seed))}
}

// next returns the next grid index.
func (p *sweepPlan) next() int {
	if len(p.queue) == 0 {
		var c [8]int
		for a := range faultAxis {
			c[a] = p.rng.Intn(axisLens[a])
		}
		if p.rng.Float64() < faultedShare {
			c[faultAxis] = 1
		}
		axis := p.rng.Intn(faultAxis)
		for v := 0; v < axisLens[axis]; v++ {
			c[axis] = v
			p.queue = append(p.queue, gridIndex(c))
		}
	}
	idx := p.queue[0]
	p.queue = p.queue[1:]
	return idx
}

// bandwidthDigest is the stored check value of one point's bandwidth.
func bandwidthDigest(bw float64) uint32 {
	h := fnv.New32a()
	var b [8]byte
	bits := math.Float64bits(bw)
	for i := range b {
		b[i] = byte(bits >> (8 * i))
	}
	h.Write(b[:])
	return h.Sum32()
}

// measurePoint runs one grid point on a fresh machine, the way
// core.MeasurePoints evaluates the catalogue's sweeps.
func measurePoint(idx int, healthy, faulted machine.Config) (machine.RunResult, error) {
	p, f := gridPoint(idx)
	cfg := healthy
	if f {
		cfg = faulted
	}
	b, err := core.NewBench(cfg)
	if err != nil {
		return machine.RunResult{}, err
	}
	return b.MeasureDetailed(p)
}

type sweepInstance struct {
	seed             int64
	digests          []uint32
	healthy, faulted machine.Config
}

// warmupPoints is how many points of the seeded stream set-up measures
// before the timed loop starts.
const warmupPoints = 1000

// setupSweep loads the digests and warms the process up on the first
// warmupPoints points of the seeded stream, checking each.
func setupSweep(seed int64, _ string) (instance, error) {
	digests, err := loadSweepDigests()
	if err != nil {
		return nil, err
	}
	s := &sweepInstance{seed: seed, digests: digests, healthy: machine.DefaultConfig(), faulted: faultedConfig()}
	plan := newSweepPlan(seed)
	for i := 0; i < warmupPoints; i++ {
		idx := plan.next()
		res, err := measurePoint(idx, s.healthy, s.faulted)
		if err != nil {
			return nil, fmt.Errorf("warm-up point %d: %w", idx, err)
		}
		if bandwidthDigest(res.Bandwidth) != digests[idx] {
			return nil, fmt.Errorf("warm-up point %d: bandwidth %g does not match its digest", idx, res.Bandwidth)
		}
	}
	return s, nil
}

func (s *sweepInstance) close() error { return nil }

// run measures the 12 val01 anchors, then the seeded sweep stream until d
// has passed. Each point is one op: core.NewBench plus MeasureDetailed.
func (s *sweepInstance) run(d time.Duration, sp *spans) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	plan := newSweepPlan(s.seed)
	var newUS, measUS, faultUS []float64
	var runs float64
	var allocBefore runtime.MemStats
	if sp != nil {
		runtime.ReadMemStats(&allocBefore)
	}
	anchorErr := 0.0
	cpu0 := cpuSeconds()
	deadline := time.Now().Add(d)
	for i := 0; i < len(val01Anchors) || time.Now().Before(deadline); i++ {
		var idx int
		if i < len(val01Anchors) {
			idx = gridIndex(val01Anchors[i].c)
		} else {
			idx = plan.next()
		}
		p, faulted := gridPoint(idx)
		cfg := s.healthy
		if faulted {
			cfg = s.faulted
		}
		o.attempted++
		t0 := time.Now()
		root := sp.begin("point", -1, int64(i))
		b, err := core.NewBench(cfg)
		t1 := time.Now()
		sp.add("core.NewBench", t0, t1, root, int64(i))
		var res machine.RunResult
		if err == nil {
			res, err = b.MeasureDetailed(p)
		}
		t2 := time.Now()
		sp.add("core.MeasureDetailed", t1, t2, root, int64(i))
		sp.end(root)
		o.opMS = append(o.opMS, float64(t2.Sub(t0))/1e6)
		if sp != nil {
			newUS = append(newUS, float64(t1.Sub(t0))/1e3)
			m := float64(t2.Sub(t1)) / 1e3
			measUS = append(measUS, m)
			if faulted {
				faultUS = append(faultUS, m)
			}
			runs += b.M.Metrics().Counter("machine.run.count").Value()
		}
		if err != nil {
			o.failed++
			fmt.Fprintf(os.Stderr, "point %d failed: %v\n", idx, err)
			continue
		}
		if bandwidthDigest(res.Bandwidth) != s.digests[idx] {
			o.failed++
			fmt.Fprintf(os.Stderr, "point %d: bandwidth %g does not match its digest\n", idx, res.Bandwidth)
		}
		if i < len(val01Anchors) {
			a := val01Anchors[i]
			anchorErr += math.Abs(res.Bandwidth/1e9-a.paper) / a.paper
		}
	}
	o.opsPerCPUSec = float64(o.attempted) / (cpuSeconds() - cpu0)
	o.paperErrorPct = anchorErr / float64(len(val01Anchors)) * 100
	if sp != nil {
		var allocAfter runtime.MemStats
		runtime.ReadMemStats(&allocAfter)
		o.layer["core.measure_us.p50"] = quantile(measUS, 0.5)
		o.layer["core.measure_us.p99"] = quantile(measUS, 0.99)
		o.layer["core.measure_us.faulted.p50"] = quantile(faultUS, 0.5)
		o.layer["machine.new_us"] = quantile(newUS, 0.5)
		o.layer["machine.runs_per_point"] = runs / float64(o.attempted)
		o.layer["core.alloc_kb_per_point"] = float64(allocAfter.TotalAlloc-allocBefore.TotalAlloc) / 1024 / float64(o.attempted)
	}
	return o, nil
}
