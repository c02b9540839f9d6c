package engine_test

import (
	"fmt"
	"testing"

	"repro/internal/aware"
	"repro/internal/machine"
	"repro/internal/naive"
	"repro/internal/ssb"
)

// flight runs the 13 SSB queries on a fresh naive and a fresh aware engine,
// each on its own new machine.
func flight(b *testing.B, d *ssb.Data) {
	qs := ssb.Queries()
	n, err := naive.New(machine.MustNew(machine.DefaultConfig()), d, naive.Options{TargetSF: 50})
	if err != nil {
		b.Fatal(err)
	}
	a, err := aware.New(machine.MustNew(machine.DefaultConfig()), d, aware.Options{TargetSF: 100})
	if err != nil {
		b.Fatal(err)
	}
	for _, q := range qs {
		if _, err := n.Run(q); err != nil {
			b.Fatal(err)
		}
		if _, err := a.Run(q); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkColdFlight times a fresh naive+aware 13-query flight per scale
// factor, cold (newly generated data, so every query's fact pass and
// execution memo is filled inside the timed flight; generation itself is
// untimed) against warm (the same data set, memos already filled).
func BenchmarkColdFlight(b *testing.B) {
	for _, sf := range []float64{0.05, 0.1, 0.2} {
		b.Run(fmt.Sprintf("sf=%g/cold", sf), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				d := ssb.MustGenerate(sf)
				b.StartTimer()
				flight(b, d)
			}
		})
		b.Run(fmt.Sprintf("sf=%g/warm", sf), func(b *testing.B) {
			d := ssb.MustGenerate(sf)
			flight(b, d)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				flight(b, d)
			}
		})
	}
}
