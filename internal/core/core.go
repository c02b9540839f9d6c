// Package core exposes the paper's contribution as a reusable library: a
// characterization runner that measures PMEM/DRAM bandwidth for any workload
// point on the simulated machine (the instrument behind every figure), and
// an Advisor that encodes the paper's 7 best practices (Section 7) as
// executable recommendations.
package core

import (
	"context"
	"fmt"
	"strconv"
	"sync"
	"sync/atomic"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/topology"
	"repro/internal/workload"
)

// Bench runs workload points against one machine, reusing regions.
type Bench struct {
	M *machine.Machine

	pmem [2]*machine.Region
	dram [2]*machine.Region
}

// NewBench builds a bench over a fresh machine.
func NewBench(cfg machine.Config) (*Bench, error) {
	m, err := machine.New(cfg)
	if err != nil {
		return nil, err
	}
	return &Bench{M: m}, nil
}

// MustNewBench panics on error.
func MustNewBench(cfg machine.Config) *Bench {
	b, err := NewBench(cfg)
	if err != nil {
		panic(err)
	}
	return b
}

// Region returns (allocating on first use) a benchmark region of the given
// class on a socket: 70 GB for sequential benchmarks per the paper's setup.
func (b *Bench) Region(class access.DeviceClass, socket topology.SocketID, size int64) (*machine.Region, error) {
	if int(socket) > 1 {
		return nil, fmt.Errorf("core: bench supports sockets 0 and 1, got %d", socket)
	}
	switch class {
	case access.PMEM:
		if b.pmem[socket] == nil {
			r, err := b.M.AllocPMEM("bench/pmem"+strconv.Itoa(int(socket)), socket, size, machine.DevDax)
			if err != nil {
				return nil, err
			}
			b.pmem[socket] = r
		}
		return b.pmem[socket], nil
	case access.DRAM:
		if b.dram[socket] == nil {
			r, err := b.M.AllocDRAM("bench/dram"+strconv.Itoa(int(socket)), socket, size)
			if err != nil {
				return nil, err
			}
			b.dram[socket] = r
		}
		return b.dram[socket], nil
	default:
		return nil, fmt.Errorf("core: no bench region for device %v", class)
	}
}

// Point is one benchmark configuration.
type Point struct {
	Class      access.DeviceClass
	Dir        access.Direction
	Pattern    access.Pattern
	AccessSize int64
	Threads    int
	Policy     cpu.PinPolicy
	Socket     topology.SocketID
	RegionSize int64 // 0 = 70 GB sequential default / 2 GB random default
	TotalBytes int64 // 0 = 70 GB
	Far        bool  // threads on the opposite socket from the data
	Warm       bool  // pre-establish cross-socket mappings
}

func (p Point) withDefaults() Point {
	if p.RegionSize == 0 {
		if p.Pattern == access.Random {
			p.RegionSize = 2_000_000_000 // the paper's 2 GB random region
		} else {
			p.RegionSize = 70_000_000_000
		}
	}
	if p.TotalBytes == 0 {
		p.TotalBytes = 70_000_000_000
	}
	return p
}

// Measure runs the point and returns its bandwidth in GB/s.
func (b *Bench) Measure(p Point) (float64, error) {
	res, err := b.MeasureDetailed(p)
	if err != nil {
		return 0, err
	}
	return res.Bandwidth / 1e9, nil
}

// MeasureDetailed runs the point and returns the full result, including the
// peak resource utilizations (the bottleneck diagnostic).
func (b *Bench) MeasureDetailed(p Point) (machine.RunResult, error) {
	return b.MeasureDetailedContext(context.Background(), p)
}

// MeasureDetailedContext is MeasureDetailed with cooperative cancellation,
// polled once per solver step. Fault-plan runs can stretch a point's virtual
// (and wall) time far past a healthy run's, so interactive callers thread
// their signal context through here.
func (b *Bench) MeasureDetailedContext(ctx context.Context, p Point) (machine.RunResult, error) {
	p = p.withDefaults()
	dataSocket := p.Socket
	threadSocket := p.Socket
	if p.Far {
		dataSocket = b.M.Topology().FarSocket(p.Socket)
	}
	reg, err := b.Region(p.Class, dataSocket, p.RegionSize)
	if err != nil {
		return machine.RunResult{}, err
	}
	if p.Warm {
		reg.WarmFor(threadSocket)
	}
	streams, err := workload.Build(b.M, workload.Spec{
		Name: p.Class.String() + "-" + p.Dir.String() + "-" + p.Pattern.String() + "-" +
			strconv.FormatInt(p.AccessSize, 10) + "-" + strconv.Itoa(p.Threads) + "thr",
		Dir:        p.Dir,
		Pattern:    p.Pattern,
		AccessSize: p.AccessSize,
		Threads:    p.Threads,
		Policy:     p.Policy,
		Socket:     threadSocket,
		Region:     reg,
		TotalBytes: p.TotalBytes,
	})
	if err != nil {
		return machine.RunResult{}, err
	}
	return b.M.RunContext(ctx, streams)
}

// SweepAxis measures the point across one varying axis.
type SweepResult struct {
	Axis []int64
	GBs  []float64
}

// SweepAccessSize measures the point for each access size. A canceled ctx
// stops the sweep between points, returning the context's error alongside the
// points measured so far.
func (b *Bench) SweepAccessSize(ctx context.Context, p Point, sizes []int64) (SweepResult, error) {
	out := SweepResult{}
	for _, s := range sizes {
		if err := ctxErr(ctx); err != nil {
			return out, err
		}
		q := p
		q.AccessSize = s
		v, err := b.Measure(q)
		if err != nil {
			return out, err
		}
		out.Axis = append(out.Axis, s)
		out.GBs = append(out.GBs, v)
	}
	return out, nil
}

// SweepThreads measures the point for each thread count, honoring ctx
// cancellation between points like SweepAccessSize.
func (b *Bench) SweepThreads(ctx context.Context, p Point, threads []int) (SweepResult, error) {
	out := SweepResult{}
	for _, t := range threads {
		if err := ctxErr(ctx); err != nil {
			return out, err
		}
		q := p
		q.Threads = t
		v, err := b.Measure(q)
		if err != nil {
			return out, err
		}
		out.Axis = append(out.Axis, int64(t))
		out.GBs = append(out.GBs, v)
	}
	return out, nil
}

// MeasurePoints measures each point on its own fresh Bench built from cfg,
// evaluating up to width of them concurrently (width <= 1 still uses
// per-point benches, just serially). Because every point runs on a cold
// machine, the values are independent of evaluation order, so the result is
// byte-identical for any width. That also means cross-point machine state
// (warm-up, wear) is deliberately NOT modeled — sweeps that rely on it
// (Figure 5's repeated far runs) must keep a shared Bench. On failure the
// lowest-index error is returned with the values measured so far.
func MeasurePoints(ctx context.Context, cfg machine.Config, width int, points []Point) ([]float64, error) {
	out := make([]float64, len(points))
	errs := make([]error, len(points))
	if width > len(points) {
		width = len(points)
	}
	if width < 1 {
		width = 1
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < width; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(points) {
					return
				}
				if err := ctxErr(ctx); err != nil {
					errs[i] = err
					continue
				}
				b, err := NewBench(cfg)
				if err != nil {
					errs[i] = err
					continue
				}
				out[i], errs[i] = b.Measure(points[i])
			}
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return out, err
		}
	}
	return out, nil
}

func ctxErr(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	return ctx.Err()
}

// Best returns the axis value with the highest bandwidth.
func (r SweepResult) Best() (int64, float64) {
	bi := 0
	for i, v := range r.GBs {
		if v > r.GBs[bi] {
			bi = i
		}
	}
	if len(r.Axis) == 0 {
		return 0, 0
	}
	return r.Axis[bi], r.GBs[bi]
}
