package aware

import (
	"testing"

	"repro/internal/machine"
	"repro/internal/ssb"
)

// TestWarmedRunAllocs pins the engine's steady-state allocation budget: on a
// warmed engine (execution memoized, stream arena and label caches filled)
// a repeated query run may allocate only the
// caller-visible result copy and the run-result bookkeeping. Regressions
// here are exactly the per-query garbage the arena work removed.
func TestWarmedRunAllocs(t *testing.T) {
	d := ssb.MustGenerate(0.01)
	m := machine.MustNew(machine.DefaultConfig())
	e, err := New(m, d, Options{Threads: 8, Sockets: 2, TargetSF: 1})
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
	const maxAllocs = 32 // measured 16; headroom for map growth jitter
	if n := testing.AllocsPerRun(20, func() {
		if _, err := e.Run(q); err != nil {
			t.Fatal(err)
		}
	}); n > maxAllocs {
		t.Errorf("warmed Run allocates %.0f/op, want <= %d", n, maxAllocs)
	}
}

// BenchmarkSSBQueryFlight runs the full 13-query flight on one warmed
// engine, the shape fig14b measures per configuration. ReportAllocs keeps
// the steady-state allocation count on the benchmark dashboard.
func BenchmarkSSBQueryFlight(b *testing.B) {
	d := ssb.MustGenerate(0.01)
	m := machine.MustNew(machine.DefaultConfig())
	e, err := New(m, d, Options{Threads: 8, Sockets: 2, TargetSF: 1})
	if err != nil {
		b.Fatal(err)
	}
	queries := ssb.Queries()
	for _, q := range queries {
		if _, err := e.Run(q); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			if _, err := e.Run(q); err != nil {
				b.Fatal(err)
			}
		}
	}
}
