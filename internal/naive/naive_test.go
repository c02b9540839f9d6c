package naive

import (
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/machine"
	"repro/internal/ssb"
)

var testData = ssb.MustGenerate(0.05)

func newEngine(t *testing.T, opt Options) *Engine {
	t.Helper()
	m := machine.MustNew(machine.DefaultConfig())
	e, err := New(m, testData, opt)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return e
}

// TestResultsMatchReference: the unaware engine must still be *correct* on
// every query — only slow.
func TestResultsMatchReference(t *testing.T) {
	e := newEngine(t, Options{})
	for _, q := range ssb.Queries() {
		want := ssb.Reference(testData, q)
		run, err := e.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", q.ID, err)
		}
		if !run.Result.Equal(want) {
			t.Errorf("%s: result mismatch\n got: %v\nwant: %v", q.ID, run.Result, want)
		}
	}
}

// TestHyriseSlowdown reproduces Figure 14a's headline: at sf 50 on a single
// socket, PMEM-Hyrise averages ~5.3x slower than DRAM-Hyrise (range
// 2.5x-7.7x), because hash operations dominate.
func TestHyriseSlowdown(t *testing.T) {
	pm := newEngine(t, Options{Device: access.PMEM, TargetSF: 50})
	dr := newEngine(t, Options{Device: access.DRAM, TargetSF: 50})
	var ratios []float64
	var sum float64
	for _, q := range ssb.Queries() {
		a, err := pm.Run(q)
		if err != nil {
			t.Fatalf("%s PMEM: %v", q.ID, err)
		}
		b, err := dr.Run(q)
		if err != nil {
			t.Fatalf("%s DRAM: %v", q.ID, err)
		}
		if a.Seconds <= 0 || b.Seconds <= 0 {
			t.Fatalf("%s: non-positive runtime (%.2f / %.2f)", q.ID, a.Seconds, b.Seconds)
		}
		r := a.Seconds / b.Seconds
		ratios = append(ratios, r)
		sum += r
		if r < 1.5 {
			t.Errorf("%s: PMEM/DRAM = %.2f, want clearly slower on PMEM", q.ID, r)
		}
		t.Logf("%s: PMEM %.2f s, DRAM %.2f s, ratio %.2f", q.ID, a.Seconds, b.Seconds, r)
	}
	avg := sum / float64(len(ratios))
	if avg < 3.0 || avg > 7.5 {
		t.Errorf("average PMEM/DRAM ratio = %.2f, want ~5.3 (Figure 14a)", avg)
	}
}

// TestHyriseMagnitudes: sf 50 queries take seconds on DRAM and up to tens of
// seconds on PMEM (Figure 14a's bars, including the clipped ones).
func TestHyriseMagnitudes(t *testing.T) {
	pm := newEngine(t, Options{Device: access.PMEM, TargetSF: 50})
	q, _ := ssb.QueryByID("Q2.1")
	run, err := pm.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if run.Seconds < 2 || run.Seconds > 40 {
		t.Errorf("PMEM Q2.1 = %.1f s, want single-to-low-double digits at sf 50", run.Seconds)
	}
	if run.Stats.Probes == 0 || run.Stats.MaterializedBytes == 0 {
		t.Errorf("missing stats: %+v", run.Stats)
	}
}

// TestSlowerThanAwareOnPMEM: the whole point of Section 6 — the PMEM-aware
// engine beats the unaware one on the same device.
func TestHashOpsDominate(t *testing.T) {
	pm := newEngine(t, Options{Device: access.PMEM, TargetSF: 50})
	q, _ := ssb.QueryByID("Q3.1")
	run, err := pm.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	// The join pipeline (hash ops) must dominate the dimension scans
	// ("hash-operations take over 90% of the execution time").
	var build, pipeline float64
	for _, ph := range run.Phases {
		if ph.Name == "dim-scan+build" {
			build = ph.Seconds
		} else {
			pipeline += ph.Seconds
		}
	}
	if pipeline < build*3 {
		t.Errorf("join pipeline %.2f s not dominating build %.2f s", pipeline, build)
	}
}

func TestOptionsValidation(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	if _, err := New(m, testData, Options{Threads: -3}); err == nil {
		t.Error("New with negative threads succeeded")
	}
}

// TestGatherTrafficOnMultiJoin: queries with several joins gather keys
// through position lists (random 64 B reads) in all but the first stage.
func TestGatherTrafficOnMultiJoin(t *testing.T) {
	e := newEngine(t, Options{TargetSF: 50})
	q31, _ := ssb.QueryByID("Q3.1") // customer + supplier + date joins
	run, err := e.Run(q31)
	if err != nil {
		t.Fatal(err)
	}
	if run.Stats.GatherBytes == 0 {
		t.Errorf("multi-join query recorded no gather traffic: %+v", run.Stats)
	}
	// A single-join flight-1 query has no later stages to gather for.
	q11, _ := ssb.QueryByID("Q1.1")
	run11, err := e.Run(q11)
	if err != nil {
		t.Fatal(err)
	}
	if run11.Stats.GatherBytes != 0 {
		t.Errorf("Q1.1 recorded gather traffic %d, want 0", run11.Stats.GatherBytes)
	}
}

// TestPhasesPerStage: the pipeline reports one phase per operator group.
func TestPhasesPerStage(t *testing.T) {
	e := newEngine(t, Options{TargetSF: 50})
	q, _ := ssb.QueryByID("Q4.1")
	run, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	// build + pipeline.
	if len(run.Phases) != 2 {
		t.Fatalf("phases = %d, want 2", len(run.Phases))
	}
	for _, ph := range run.Phases {
		if ph.Seconds <= 0 {
			t.Errorf("phase %s has non-positive time", ph.Name)
		}
	}
}

// TestThreadOptionScales: more simulated threads shorten the runtime until
// the device saturates.
func TestThreadOptionScales(t *testing.T) {
	q, _ := ssb.QueryByID("Q2.1")
	few := newEngine(t, Options{Threads: 4, TargetSF: 50})
	many := newEngine(t, Options{Threads: 36, TargetSF: 50})
	rf, err := few.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	rm, err := many.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if rm.Seconds >= rf.Seconds {
		t.Errorf("36 threads (%.2f s) not faster than 4 (%.2f s)", rm.Seconds, rf.Seconds)
	}
}

func TestPlan(t *testing.T) {
	e := newEngine(t, Options{})
	q, _ := ssb.QueryByID("Q3.1")
	plan := e.Plan(q)
	for _, want := range []string{"Q3.1", "hash join customer", "hash join supplier", "hash join date", "pointer chase", "aggregate"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
}

// TestOwnScaleIsIdentity: with the default TargetSF (the data's own sf) no
// table is rescaled, even below sf 0.02 where the generator's minimum
// dimension sizes apply.
func TestOwnScaleIsIdentity(t *testing.T) {
	e, err := New(machine.MustNew(machine.DefaultConfig()), ssb.MustGenerate(0.01), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if e.factScale != 1 {
		t.Errorf("fact scale = %g, want 1", e.factScale)
	}
	for _, dim := range []string{"date", "customer", "supplier", "part"} {
		if got := e.dimScale[dim]; got != 1 {
			t.Errorf("%s scale = %g, want 1", dim, got)
		}
	}
}
