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
// rebuilds.
func TestWarmRunSteadyAllocs(t *testing.T) {
	m := MustNew(DefaultConfig())
	r, err := m.AllocPMEM("warmalloc", 0, 1<<30, DevDax)
	if err != nil {
		t.Fatal(err)
	}
	placements := cpu.AssignThreads(m.Topology(), cpu.PinCores, 0, 4)
	var streams []*Stream
	for _, pl := range placements {
		streams = append(streams, &Stream{
			Label: "warmalloc", Placement: pl, Policy: cpu.PinCores,
			Region: r, Dir: access.Read, Pattern: access.SeqIndividual,
			AccessSize: 4096, Bytes: 1 << 28,
		})
	}
	for i := 0; i < 3; i++ {
		if _, err := m.Run(streams); err != nil {
			t.Fatal(err)
		}
	}
	const maxAllocs = 16 // measured 5; headroom for runtime map internals
	if n := testing.AllocsPerRun(50, func() {
		if _, err := m.Run(streams); err != nil {
			t.Fatal(err)
		}
	}); n > maxAllocs {
		t.Errorf("warmed Run allocates %.0f/op, want <= %d", n, maxAllocs)
	}
}
