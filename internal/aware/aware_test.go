package aware

import (
	"strings"
	"testing"

	"repro/internal/access"
	"repro/internal/cpu"
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

// TestResultsMatchReference is the engine's correctness contract: the
// hash-join execution must agree with the naive reference executor on every
// query.
func TestResultsMatchReference(t *testing.T) {
	e := newEngine(t, Options{NUMAAware: true})
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

func TestResultsDeviceIndependent(t *testing.T) {
	q, _ := ssb.QueryByID("Q3.2")
	pm := newEngine(t, Options{Device: access.PMEM, NUMAAware: true})
	dr := newEngine(t, Options{Device: access.DRAM, NUMAAware: true})
	a, err := pm.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dr.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if !a.Result.Equal(b.Result) {
		t.Error("PMEM and DRAM engines disagree on Q3.2")
	}
}

func TestTimingHasPhases(t *testing.T) {
	e := newEngine(t, Options{NUMAAware: true})
	q, _ := ssb.QueryByID("Q2.1")
	run, err := e.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if len(run.Phases) != 3 {
		t.Fatalf("phases = %d, want 3 (build, fact, merge)", len(run.Phases))
	}
	if run.Seconds <= 0 {
		t.Error("non-positive total seconds")
	}
	if run.Stats.Probes == 0 || run.Stats.BytesScanned == 0 {
		t.Errorf("missing stats: %+v", run.Stats)
	}
}

// TestTable1Shape reproduces Table 1's optimization ladder for Q2.1 at
// sf 100: each optimization step must reduce the runtime, and the absolute
// numbers must land near the paper's.
func TestTable1Shape(t *testing.T) {
	q, _ := ssb.QueryByID("Q2.1")
	type cfgCase struct {
		name string
		opt  Options
		// paper's Table 1 anchors (seconds) with generous tolerance
		pmemLo, pmemHi float64
	}
	cases := []cfgCase{
		{"1-thread", Options{Threads: 1, Sockets: 1, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}, 230, 380},
		{"18-threads", Options{Threads: 18, Sockets: 1, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}, 15, 32},
		{"2-socket", Options{Threads: 36, Sockets: 2, Pinning: cpu.PinNUMA, NUMAAware: false, TargetSF: 100}, 9, 16},
		{"numa", Options{Threads: 36, Sockets: 2, Pinning: cpu.PinNUMA, NUMAAware: true, TargetSF: 100}, 6, 12},
		{"pinning", Options{Threads: 36, Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}, 6, 11},
	}
	prev := 1e18
	for _, c := range cases {
		e := newEngine(t, c.opt)
		run, err := e.Run(q)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if run.Seconds < c.pmemLo || run.Seconds > c.pmemHi {
			t.Errorf("%s: PMEM Q2.1 = %.1f s, want in [%.0f, %.0f] (Table 1)", c.name, run.Seconds, c.pmemLo, c.pmemHi)
		}
		if run.Seconds > prev*1.05 {
			t.Errorf("%s: runtime %.1f did not improve on previous step %.1f", c.name, run.Seconds, prev)
		}
		prev = run.Seconds
	}
}

// TestPMEMvsDRAMRatio checks the headline result: at full optimization, the
// PMEM engine is only modestly slower than DRAM (paper: 1.66x on average;
// Q2.1 specifically 8.6 vs 5.2 = 1.65x).
func TestPMEMvsDRAMRatio(t *testing.T) {
	q, _ := ssb.QueryByID("Q2.1")
	opt := Options{Threads: 36, Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}
	pm := newEngine(t, opt)
	optD := opt
	optD.Device = access.DRAM
	dr := newEngine(t, optD)
	a, err := pm.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dr.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	ratio := a.Seconds / b.Seconds
	if ratio < 1.1 || ratio > 2.6 {
		t.Errorf("PMEM/DRAM Q2.1 ratio = %.2f (%.1f vs %.1f s), want ~1.65", ratio, a.Seconds, b.Seconds)
	}
}

// TestQF1ScanBound: flight 1 is a pure scan; at 36 threads over 2 sockets it
// should take on the order of a second on PMEM (paper ~1.3 s) and less on
// DRAM (~0.5 s).
func TestQF1ScanBound(t *testing.T) {
	q, _ := ssb.QueryByID("Q1.1")
	opt := Options{Threads: 36, Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}
	pm := newEngine(t, opt)
	optD := opt
	optD.Device = access.DRAM
	dr := newEngine(t, optD)
	a, err := pm.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	b, err := dr.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if a.Seconds < 0.7 || a.Seconds > 2.0 {
		t.Errorf("PMEM Q1.1 = %.2f s, want ~1-1.3", a.Seconds)
	}
	if b.Seconds < 0.3 || b.Seconds > 1.0 {
		t.Errorf("DRAM Q1.1 = %.2f s, want ~0.5-0.7", b.Seconds)
	}
	if a.Seconds <= b.Seconds {
		t.Errorf("PMEM (%.2f) not slower than DRAM (%.2f)", a.Seconds, b.Seconds)
	}
}

// TestSSDBaseline reproduces the Section 6.2 aside: Q2.1 from an NVMe SSD
// with DRAM indexes completes in ~22.8 s, scan-bound; PMEM beats it by >2.6x.
func TestSSDBaseline(t *testing.T) {
	q, _ := ssb.QueryByID("Q2.1")
	ssd := newEngine(t, Options{Threads: 36, Sockets: 2, Pinning: cpu.PinCores,
		NUMAAware: true, TargetSF: 100, SSDScan: true})
	run, err := ssd.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if run.Seconds < 19 || run.Seconds > 28 {
		t.Errorf("SSD Q2.1 = %.1f s, want ~22.8 (76.8 GB at 3.2 GB/s)", run.Seconds)
	}
	pm := newEngine(t, Options{Threads: 36, Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100})
	pr, err := pm.Run(q)
	if err != nil {
		t.Fatal(err)
	}
	if run.Seconds/pr.Seconds < 2.0 {
		t.Errorf("SSD/PMEM ratio = %.2f, want >= 2 (paper 2.6x)", run.Seconds/pr.Seconds)
	}
}

func TestOptionsValidation(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	if _, err := New(m, testData, Options{Sockets: 7}); err == nil {
		t.Error("New with 7 sockets succeeded")
	}
	if _, err := New(m, testData, Options{Threads: -1}); err == nil {
		t.Error("New with negative threads succeeded")
	}
}

func TestPlan(t *testing.T) {
	e := newEngine(t, Options{NUMAAware: true})
	q21, _ := ssb.QueryByID("Q2.1")
	plan := e.Plan(q21)
	for _, want := range []string{"Q2.1", "hash joins", "part", "supplier", "in-cache lookup", "fact scan"} {
		if !strings.Contains(plan, want) {
			t.Errorf("plan missing %q:\n%s", want, plan)
		}
	}
	// Part (4%) must be probed before supplier (20%).
	if strings.Index(plan, "part") > strings.Index(plan, "supplier") {
		t.Errorf("probe order wrong:\n%s", plan)
	}
	q11, _ := ssb.QueryByID("Q1.1")
	plan11 := e.Plan(q11)
	if !strings.Contains(plan11, "no hash joins") {
		t.Errorf("Q1.1 plan should have no joins:\n%s", plan11)
	}
}

// TestSimulateLoad: bulk import at sf 100 lands near the write peak with
// the advised 6 threads per socket, and gets WORSE with 36 (Insight #7).
func TestSimulateLoad(t *testing.T) {
	opt := Options{Threads: 36, Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}
	good := newEngine(t, opt)
	rep, err := good.SimulateLoad(0) // advisor default: 6/socket
	if err != nil {
		t.Fatal(err)
	}
	// 76.8 GB at ~25 GB/s two-socket write peak plus pre-fault overhead.
	if rep.Seconds < 2.5 || rep.Seconds > 30 {
		t.Errorf("load time = %.1f s, want a few seconds", rep.Seconds)
	}
	if gb := rep.WriteBandwidth / 1e9; gb < 23 || gb > 26 {
		t.Errorf("load bandwidth = %.1f GB/s, want ~25 (2 x 12.6 peak)", gb)
	}
	if rep.PreFaultSec <= 0 {
		t.Error("fsdax load missing pre-fault cost")
	}

	bad := newEngine(t, opt)
	repBad, err := bad.SimulateLoad(36)
	if err != nil {
		t.Fatal(err)
	}
	if repBad.WriteBandwidth >= rep.WriteBandwidth {
		t.Errorf("36 write threads (%.1f GB/s) not slower than 6 (%.1f GB/s)",
			repBad.WriteBandwidth/1e9, rep.WriteBandwidth/1e9)
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
	for _, dim := range []string{"customer", "supplier", "part"} {
		if got := e.dimScale[dim]; got != 1 {
			t.Errorf("%s scale = %g, want 1", dim, got)
		}
	}
}
