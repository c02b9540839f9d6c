package aware

import (
	"testing"

	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/ssb"
)

// TestParallelExecutionDeterministic: the host worker count of the shared
// fact pass must not change any query's execution (integer aggregation
// commutes; partials, histograms and probe counts merge exactly). It drives
// unmemoized passes directly, so both worker counts really run.
func TestParallelExecutionDeterministic(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	e, err := New(m, ssb.MustGenerate(0.05), Options{Threads: 8, Sockets: 1})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	for _, q := range ssb.Queries() {
		one := e.execute(q, engine.RunFactPass(e.data, q, 1))
		// Seven workers deliberately do not divide the row count evenly.
		seven := e.execute(q, engine.RunFactPass(e.data, q, 7))
		if !one.result.Equal(seven.result) {
			t.Errorf("%s: results differ between 1 and 7 workers", q.ID)
		}
		if one.qualifying != seven.qualifying {
			t.Errorf("%s: qualifying rows differ: %d vs %d", q.ID, one.qualifying, seven.qualifying)
		}
		// The probes' bucket reads drive the probe traffic model.
		for i := range one.indexes {
			if a, b := one.indexes[i].factStats, seven.indexes[i].factStats; a != b {
				t.Errorf("%s %s: fact-phase index stats differ: %+v vs %+v", q.ID, one.indexes[i].name, a, b)
			}
		}
	}
}
