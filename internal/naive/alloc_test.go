package naive

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/ssb"
)

// TestWarmedRunAllocs pins the naive engine's steady-state allocation
// budget, mirroring the aware engine's guard: with the execution memoized
// and the stream arena, label, and placement caches warm, a repeated query
// run allocates only the caller-visible result copy and per-stage run
// bookkeeping.
func TestWarmedRunAllocs(t *testing.T) {
	d := ssb.MustGenerate(0.01)
	m := machine.MustNew(machine.DefaultConfig())
	e, err := New(m, d, Options{Threads: 8, TargetSF: 1})
	if err != nil {
		t.Fatal(err)
	}
	q, err := ssb.QueryByID("Q2.1")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
	}
	const maxAllocs = 48 // measured 31; headroom for map growth jitter
	if n := testing.AllocsPerRun(20, func() {
		if _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
	}); n > maxAllocs {
		t.Errorf("warmed Run allocates %.0f/op, want <= %d", n, maxAllocs)
	}
}
