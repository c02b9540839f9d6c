package machine

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/fluid"
)

// referencePrepare is the unconditional write-share fixed point: three
// computeCosts/Solve/updateWriteShares iterations and a final computeCosts,
// whether or not the estimates have already repeated.
func referencePrepare(rm *runModel, now float64) {
	rm.now = now
	pop := rm.gather()
	for iter := 0; iter < 3; iter++ {
		rm.computeCosts(pop)
		rm.solver.Solve(rm.flows, rm.Resources())
		rm.updateWriteShares()
	}
	rm.computeCosts(pop)
	rm.dirty = false
}

// TestPrepareExactFixedPoint pins the early exit from Prepare's write-share
// fixed point as exact: for every population shape, Prepare leaves the flows'
// costs, demands, weights, rates, per-flow context and the uW/uWDram
// estimates bit-identical to the unconditional three-iteration loop, both on
// a fresh run and after a flow finishes (which starts the next Prepare from
// the previous step's estimates and leaves an inactive flow behind).
func TestPrepareExactFixedPoint(t *testing.T) {
	type streamSpec struct {
		region  *Region
		dir     access.Direction
		threads int
	}
	// Threads are NUMA-pinned to socket 0 in spec order, as fig11 places
	// its writers and readers; streams differ in size so they finish apart.
	streamsOf := func(m *Machine, specs ...streamSpec) []*Stream {
		total := 0
		for _, sp := range specs {
			total += sp.threads
		}
		placements := cpu.AssignThreads(m.Topology(), cpu.PinNUMA, 0, total)
		var out []*Stream
		for _, sp := range specs {
			for i := 0; i < sp.threads; i++ {
				out = append(out, &Stream{
					Label:     fmt.Sprintf("%v-%d", sp.dir, i),
					Placement: placements[len(out)],
					Policy:    cpu.PinNUMA,
					Region:    sp.region, Dir: sp.dir, Pattern: access.SeqIndividual,
					AccessSize: 4096, Bytes: float64((i + 1) << 30),
				})
			}
		}
		return out
	}
	// Allocations below are well within the default machine's capacity.
	alloc := func(r *Region, err error) *Region {
		if err != nil {
			panic(err)
		}
		return r
	}
	cases := []struct {
		name    string
		cfg     func(t *testing.T) Config
		streams func(m *Machine) []*Stream
		wantUW  bool // uW or uWDram ends non-zero, so the fixed point moved
	}{
		{"pmem-read", func(*testing.T) Config { return DefaultConfig() },
			func(m *Machine) []*Stream {
				r := alloc(m.AllocPMEM("r", 0, 64<<30, DevDax))
				return streamsOf(m, streamSpec{r, access.Read, 6})
			}, false},
		{"pmem-write", func(*testing.T) Config { return DefaultConfig() },
			func(m *Machine) []*Stream {
				r := alloc(m.AllocPMEM("w", 0, 64<<30, DevDax))
				return streamsOf(m, streamSpec{r, access.Write, 4})
			}, true},
		{"pmem-mixed", func(*testing.T) Config { return DefaultConfig() },
			func(m *Machine) []*Stream {
				rr := alloc(m.AllocPMEM("r", 0, 40<<30, DevDax))
				rw := alloc(m.AllocPMEM("w", 0, 40<<30, DevDax))
				return streamsOf(m, streamSpec{rw, access.Write, 4}, streamSpec{rr, access.Read, 8})
			}, true},
		{"dram-mixed", func(*testing.T) Config { return DefaultConfig() },
			func(m *Machine) []*Stream {
				rr := alloc(m.AllocDRAM("r", 0, 8<<30))
				rw := alloc(m.AllocDRAM("w", 0, 8<<30))
				return streamsOf(m, streamSpec{rw, access.Write, 4}, streamSpec{rr, access.Read, 8})
			}, true},
		{"memory-mode", func(*testing.T) Config { return DefaultConfig() },
			func(m *Machine) []*Stream {
				r := alloc(m.AllocMemoryMode("mm", 0, 300<<30))
				return streamsOf(m, streamSpec{r, access.Write, 2}, streamSpec{r, access.Read, 6})
			}, true},
		{"channel-offline", func(t *testing.T) Config {
			cfg := DefaultConfig()
			cfg.Faults = faultPlan(t, `{"events":[{"type":"channel-offline","start":0,"channels":3}]}`)
			return cfg
		}, func(m *Machine) []*Stream {
			rr := alloc(m.AllocPMEM("r", 0, 40<<30, DevDax))
			rw := alloc(m.AllocPMEM("w", 0, 40<<30, DevDax))
			return streamsOf(m, streamSpec{rw, access.Write, 2}, streamSpec{rr, access.Read, 6})
		}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, err := New(tc.cfg(t))
			if err != nil {
				t.Fatal(err)
			}
			streams := tc.streams(m)
			got, want := newRunModel(m, streams), newRunModel(m, streams)
			got.Prepare(0, got.flows)
			referencePrepare(want, 0)
			comparePrepared(t, "fresh", got, want)
			nonZero := false
			for s := range got.uW {
				nonZero = nonZero || got.uW[s] != 0 || got.uWDram[s] != 0
			}
			if nonZero != tc.wantUW {
				t.Errorf("write-share estimates non-zero = %v, want %v", nonZero, tc.wantUW)
			}

			// The first stream finishes: the next step starts from the
			// previous estimates with one flow inactive.
			got.flows[0].Done, want.flows[0].Done = true, true
			got.Prepare(0.5, got.flows)
			referencePrepare(want, 0.5)
			comparePrepared(t, "after completion", got, want)
		})
	}
}

func comparePrepared(t *testing.T, step string, got, want *runModel) {
	t.Helper()
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for s := range want.uW {
		if !same(got.uW[s], want.uW[s]) || !same(got.uWDram[s], want.uWDram[s]) {
			t.Errorf("%s: socket %d uW/uWDram = %v/%v, want %v/%v",
				step, s, got.uW[s], got.uWDram[s], want.uW[s], want.uWDram[s])
		}
	}
	for i, wf := range want.flows {
		gf := got.flows[i]
		if !same(gf.MaxRate, wf.MaxRate) || !same(gf.Weight, wf.Weight) || !same(gf.Rate, wf.Rate) {
			t.Errorf("%s: flow %d MaxRate/Weight/Rate = %v/%v/%v, want %v/%v/%v",
				step, i, gf.MaxRate, gf.Weight, gf.Rate, wf.MaxRate, wf.Weight, wf.Rate)
		}
		if costString(gf.Costs) != costString(wf.Costs) {
			t.Errorf("%s: flow %d costs\n got %s\nwant %s", step, i, costString(gf.Costs), costString(wf.Costs))
		}
		if g, w := fmt.Sprintf("%+v", got.fctx[i]), fmt.Sprintf("%+v", want.fctx[i]); g != w {
			t.Errorf("%s: flow %d context\n got %s\nwant %s", step, i, g, w)
		}
	}
}

// costString renders a cost vector by resource name and the exact bits of
// each per-byte cost; the two run models own distinct resource structs.
func costString(costs []fluid.Cost) string {
	s := ""
	for _, c := range costs {
		s += fmt.Sprintf("%s:%x ", c.Resource.Name, math.Float64bits(c.PerByte))
	}
	return s
}
