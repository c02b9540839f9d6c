package upi

import (
	"math"
	"testing"
)

func TestColdCapShape(t *testing.T) {
	p := DefaultParams()
	// Figure 5 "Far": ~8 GB/s peak at 4 threads, declining for more threads.
	if got := p.ColdCap(4); math.Abs(got-8e9) > 1e6 {
		t.Errorf("ColdCap(4) = %g, want 8e9", got)
	}
	if got := p.ColdCap(1); math.Abs(got-8e9) > 1e6 {
		t.Errorf("ColdCap(1) = %g, want 8e9 (no contention below ref)", got)
	}
	c18 := p.ColdCap(18)
	c36 := p.ColdCap(36)
	if !(c36 < c18 && c18 < 8e9) {
		t.Errorf("ColdCap not declining: ColdCap(18)=%g, ColdCap(36)=%g", c18, c36)
	}
	if c36 < 4e9 || c36 > 6e9 {
		t.Errorf("ColdCap(36) = %g, want ~4.6e9 (Figure 5 far at 36 threads)", c36)
	}
}

func TestWarmFarReadCap(t *testing.T) {
	p := DefaultParams()
	// Figure 5: warm far reads reach ~33 GB/s.
	got := p.WarmFarReadCap()
	if got < 32e9 || got > 34.5e9 {
		t.Errorf("WarmFarReadCap = %g, want ~33e9", got)
	}
}

func TestTwoSocketFarReadPlateau(t *testing.T) {
	p := DefaultParams()
	// Figure 6a "2 Far": both sockets far-read; each direction carries one
	// socket's data plus the other's requests. Solving
	// (DataCostFactor+RequestCostFactor) * r = Raw gives each socket's rate;
	// the total should land near the paper's ~50 GB/s.
	r := p.RawBytesPerSecPerDir / (p.DataCostFactor + p.RequestCostFactor)
	total := 2 * r
	if total < 48e9 || total > 56e9 {
		t.Errorf("two-socket far plateau = %g, want ~50e9", total)
	}
}

func TestWarmthLifecycle(t *testing.T) {
	w := &Warmth{}
	k := Key{Region: 1, Socket: 0}
	region := int64(10e9)

	if w.IsWarm(k) {
		t.Fatal("fresh pair reported warm")
	}
	if got := w.RemainingCold(k, region); got != 10e9 {
		t.Errorf("RemainingCold = %g, want 10e9", got)
	}
	w.Record(k, 4e9, region)
	if w.IsWarm(k) {
		t.Error("pair warm after partial pass")
	}
	if got := w.RemainingCold(k, region); got != 6e9 {
		t.Errorf("RemainingCold = %g, want 6e9", got)
	}
	w.Record(k, 6e9, region)
	if !w.IsWarm(k) {
		t.Error("pair not warm after full pass")
	}
	if got := w.RemainingCold(k, region); got != 0 {
		t.Errorf("RemainingCold = %g, want 0 after warm", got)
	}
	// Warm pairs ignore further recording.
	w.Record(k, 1e9, region)
	if !w.IsWarm(k) {
		t.Error("warm pair lost warmth on Record")
	}
}

func TestWarmthPerSocketIndependence(t *testing.T) {
	w := &Warmth{}
	a := Key{Region: 1, Socket: 0}
	b := Key{Region: 1, Socket: 1}
	w.MarkWarm(a)
	if !w.IsWarm(a) {
		t.Error("MarkWarm did not warm the pair")
	}
	if w.IsWarm(b) {
		t.Error("warmth leaked across sockets")
	}
}

func TestWarmthInvalidate(t *testing.T) {
	w := &Warmth{}
	k := Key{Region: 2, Socket: 1}
	w.MarkWarm(k)
	w.Invalidate(k)
	if w.IsWarm(k) {
		t.Error("Invalidate did not reset warmth")
	}
	if got := w.RemainingCold(k, 5e9); got != 5e9 {
		t.Errorf("RemainingCold after Invalidate = %g, want 5e9", got)
	}
}

func TestNegativeRecordIgnored(t *testing.T) {
	w := &Warmth{}
	k := Key{Region: 3, Socket: 0}
	w.Record(k, -100, 1000)
	if got := w.RemainingCold(k, 1000); got != 1000 {
		t.Errorf("RemainingCold = %g, want 1000 (negative bytes ignored)", got)
	}
}
