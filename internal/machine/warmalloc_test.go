package machine

import (
	"testing"

	"repro/internal/access"
	"repro/internal/cpu"
)

// TestWarmRunSteadyAllocs is the machine-level twin of the fluid package's
// TestSolverSteadyZeroAllocs: once a machine has run a stream population,
// re-running the identical population reuses the run model, flows and solver
// scratch and must stay within a handful of allocations per run (the result
// slice, the peak-utilization map) — no per-solve garbage, no run-model
// rebuilds. The staggered population has streams of different sizes, so
// flows go inactive mid-run and must keep their cost vectors for the next
// run.
func TestWarmRunSteadyAllocs(t *testing.T) {
	for _, tc := range []struct {
		name      string
		staggered bool
		maxAllocs float64
	}{
		{"identical", false, 16}, // measured 5; headroom for runtime map internals
		{"staggered", true, 8},   // measured 5
	} {
		t.Run(tc.name, func(t *testing.T) {
			m := MustNew(DefaultConfig())
			r, err := m.AllocPMEM("warmalloc", 0, 1<<30, DevDax)
			if err != nil {
				t.Fatal(err)
			}
			placements := cpu.AssignThreads(m.Topology(), cpu.PinCores, 0, 4)
			var streams []*Stream
			for i, pl := range placements {
				bytes := float64(1 << 28)
				if tc.staggered {
					bytes *= float64(i + 1)
				}
				streams = append(streams, &Stream{
					Label: "warmalloc", Placement: pl, Policy: cpu.PinCores,
					Region: r, Dir: access.Read, Pattern: access.SeqIndividual,
					AccessSize: 4096, Bytes: bytes,
				})
			}
			for i := 0; i < 3; i++ {
				if _, err := m.Run(streams); err != nil {
					t.Fatal(err)
				}
			}
			if n := testing.AllocsPerRun(50, func() {
				if _, err := m.Run(streams); err != nil {
					t.Fatal(err)
				}
			}); n > tc.maxAllocs {
				t.Errorf("warmed Run allocates %.0f/op, want <= %.0f", n, tc.maxAllocs)
			}
		})
	}
}
