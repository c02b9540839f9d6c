package engine

import (
	"testing"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/ssb"
)

func TestNewRunCopiesResultAndSumsPhases(t *testing.T) {
	shared := ssb.Result{"a": 1}
	run := NewRun[int]("Q1.1", shared, 2)
	run.Result["a"] = 7
	if shared["a"] != 1 {
		t.Fatal("run result aliases the shared result")
	}
	run.AddPhase("build", 0.25)
	run.AddPhase("scan", 0.5)
	if run.Seconds != 0.75 || len(run.Phases) != 2 || run.Phases[1] != (Phase{"scan", 0.5}) {
		t.Fatalf("run = %+v", run)
	}
}

func TestMemoBuildsOnce(t *testing.T) {
	calls := 0
	m := NewMemo(func(k int) int { calls++; return k * 2 })
	for i := 0; i < 3; i++ {
		if m.Get(4) != 8 {
			t.Fatal("wrong value")
		}
	}
	if calls != 1 {
		t.Fatalf("build ran %d times, want 1", calls)
	}
}

func TestSimRun(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	s := NewSim(m)
	if sec, err := s.Run(); sec != 0 || err != nil {
		t.Fatalf("empty batch: %g, %v", sec, err)
	}
	reg, err := AllocTable(m, "t", 0, 1<<30, access.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	pl := s.Placements(cpu.PinCores, 0, 2)
	if &pl[0] != &s.Placements(cpu.PinCores, 0, 2)[0] {
		t.Error("placements not memoized")
	}
	for i := 0; i < 2; i++ {
		s.Reset()
		s.Add(machine.Stream{Label: "r", Placement: pl[0], Policy: cpu.PinCores, Region: reg,
			Dir: access.Read, Pattern: access.SeqIndividual, AccessSize: 4096, Bytes: 1 << 20})
		sec, err := s.Run()
		if err != nil || sec <= 0 || sec != s.Last.Elapsed || len(s.Last.Streams) != 1 {
			t.Fatalf("run %d: %g, %v, last %+v", i, sec, err, s.Last)
		}
	}
}

func TestAllocTableAndSettle(t *testing.T) {
	m := machine.MustNew(machine.DefaultConfig())
	pm, err := AllocTable(m, "p", 1, 1<<30, access.PMEM)
	if err != nil {
		t.Fatal(err)
	}
	dr, err := AllocTable(m, "d", 0, 1<<30, access.DRAM)
	if err != nil {
		t.Fatal(err)
	}
	if pm.Class != access.PMEM || pm.Mode != machine.FsDax || !pm.Faulted() || dr.Class != access.DRAM {
		t.Fatalf("regions: %+v %+v", pm, dr)
	}
	Settle(m, pm, dr)
	for _, r := range []*machine.Region{pm, dr} {
		if !r.CoherenceStable || !r.IsWarmFor(0) || !r.IsWarmFor(1) {
			t.Errorf("%s not settled", r.Name)
		}
	}
}

func TestScaleAndCacheMissRate(t *testing.T) {
	d := ssb.MustGenerate(0.01)
	if got := Scale(d, "lineorder", 0.02); got != 2 {
		t.Errorf("fact scale to sf 0.02 = %g, want 2", got)
	}
	for table, s := range DimScales(d, d.SF) {
		if s != 1 {
			t.Errorf("%s own scale = %g, want 1", table, s)
		}
	}
	maxHit := 0.9
	if got := CacheMissRate(100, maxHit, 50); got != 1-maxHit {
		t.Errorf("fitting working set: miss %g", got)
	}
	if got := CacheMissRate(100, maxHit, 400); got != 1-maxHit*0.25 {
		t.Errorf("4x the cache: miss %g", got)
	}
}

func TestJoinedDims(t *testing.T) {
	d := ssb.MustGenerate(0.01)
	q, err := ssb.QueryByID("Q4.1") // joins customer, supplier, and part
	if err != nil {
		t.Fatal(err)
	}
	sel := ssb.Measure(d, q)
	want := map[string]float64{"customer": sel.Cust, "supplier": sel.Supp, "part": sel.Part}
	dims := JoinedDims(d, q)
	if len(dims) != 3 {
		t.Fatalf("%d dims, want 3", len(dims))
	}
	for _, dm := range dims {
		kept := 0
		for i := 0; i < dm.Rows; i++ {
			if dm.Keep(i) {
				kept++
			}
			if dm.Key(i) != uint32(i+1) {
				t.Fatalf("%s row %d has key %d; keys are dense and 1-based", dm.Name, i, dm.Key(i))
			}
		}
		if got := float64(kept) / float64(dm.Rows); got != want[dm.Name] {
			t.Errorf("%s selectivity %g, want %g", dm.Name, got, want[dm.Name])
		}
	}
}
