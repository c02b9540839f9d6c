package machine

import (
	"math"
	"testing"

	"repro/internal/access"
	"repro/internal/cpu"
)

func testMachine(t *testing.T) *Machine {
	t.Helper()
	m, err := New(DefaultConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return m
}

func TestAllocPMEMCapacity(t *testing.T) {
	m := testMachine(t)
	// Socket capacity is 6 x 128 GiB = 768 GiB.
	if _, err := m.AllocPMEM("big", 0, 700<<30, DevDax); err != nil {
		t.Fatalf("AllocPMEM(700 GiB): %v", err)
	}
	if _, err := m.AllocPMEM("too-big", 0, 100<<30, DevDax); err == nil {
		t.Error("AllocPMEM over capacity succeeded")
	}
	// The other socket is untouched.
	if _, err := m.AllocPMEM("other", 1, 700<<30, DevDax); err != nil {
		t.Errorf("AllocPMEM on socket 1: %v", err)
	}
}

func TestAllocDRAMCapacity(t *testing.T) {
	m := testMachine(t)
	if _, err := m.AllocDRAM("ok", 0, 90<<30); err != nil {
		t.Fatalf("AllocDRAM(90 GiB): %v", err)
	}
	if _, err := m.AllocDRAM("too-big", 0, 10<<30); err == nil {
		t.Error("AllocDRAM over the 96 GiB socket capacity succeeded")
	}
}

func TestAllocValidation(t *testing.T) {
	m := testMachine(t)
	if _, err := m.AllocPMEM("bad", 5, 1<<30, DevDax); err == nil {
		t.Error("AllocPMEM on socket 5 succeeded")
	}
	if _, err := m.AllocPMEM("bad", 0, 0, DevDax); err == nil {
		t.Error("AllocPMEM with size 0 succeeded")
	}
	if _, err := m.AllocDRAM("bad", 0, -1); err == nil {
		t.Error("AllocDRAM with negative size succeeded")
	}
	if _, err := m.AllocSSD("bad", 0); err == nil {
		t.Error("AllocSSD with size 0 succeeded")
	}
}

func TestFreeReleasesCapacity(t *testing.T) {
	m := testMachine(t)
	r, err := m.AllocPMEM("a", 0, 700<<30, DevDax)
	if err != nil {
		t.Fatal(err)
	}
	m.Free(r)
	if _, err := m.AllocPMEM("b", 0, 700<<30, DevDax); err != nil {
		t.Errorf("AllocPMEM after Free: %v", err)
	}
}

func TestWarmthAPI(t *testing.T) {
	m := testMachine(t)
	r, err := m.AllocPMEM("r", 0, 1<<30, DevDax)
	if err != nil {
		t.Fatal(err)
	}
	if r.IsWarmFor(1) {
		t.Error("fresh region warm")
	}
	r.WarmFor(1)
	if !r.IsWarmFor(1) {
		t.Error("WarmFor did not warm")
	}
	if r.IsWarmFor(0) {
		t.Error("warmth leaked to socket 0")
	}
	r.CoolFor(1)
	if r.IsWarmFor(1) {
		t.Error("CoolFor did not cool")
	}
}

func TestRunValidation(t *testing.T) {
	m := testMachine(t)
	if _, err := m.Run(nil); err == nil {
		t.Error("Run with no streams succeeded")
	}
	r, _ := m.AllocPMEM("r", 0, 1<<30, DevDax)
	bad := &Stream{Label: "bad", Region: r, AccessSize: 0, Bytes: 1e9}
	if _, err := m.Run([]*Stream{bad}); err == nil {
		t.Error("Run with zero access size succeeded")
	}
	noBytes := &Stream{Label: "nb", Region: r, AccessSize: 4096, Bytes: 0}
	if _, err := m.Run([]*Stream{noBytes}); err == nil {
		t.Error("Run with zero bytes succeeded")
	}
	badPin := &Stream{Label: "bp", Region: r, AccessSize: 4096, Bytes: 1e9, Policy: cpu.PinNone + 1}
	if _, err := m.Run([]*Stream{badPin}); err == nil {
		t.Error("Run with an unknown pin policy succeeded")
	}
	noRegion := &Stream{Label: "nr", AccessSize: 4096, Bytes: 1e9}
	if _, err := m.Run([]*Stream{noRegion}); err == nil {
		t.Error("Run with nil region succeeded")
	}
}

func TestRunSingleStream(t *testing.T) {
	m := testMachine(t)
	r, _ := m.AllocPMEM("r", 0, 70<<30, DevDax)
	s := &Stream{
		Label: "t0", Placement: cpu.Placement{Core: 0}, Policy: cpu.PinCores,
		Region: r, Dir: access.Read, Pattern: access.SeqIndividual,
		AccessSize: 4096, Bytes: 10e9,
	}
	res, err := m.Run([]*Stream{s})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.TotalBytes < 10e9*0.999 {
		t.Errorf("TotalBytes = %g, want 10e9", res.TotalBytes)
	}
	// Single prefetched reader: ~4.3 GB/s.
	if gb := res.Bandwidth / 1e9; gb < 3.8 || gb > 4.8 {
		t.Errorf("single-thread read bandwidth = %.2f GB/s, want ~4.3", gb)
	}
	if len(res.Streams) != 1 || res.Streams[0].Label != "t0" {
		t.Errorf("unexpected stream results %+v", res.Streams)
	}
}

func TestRunForSteadyWindow(t *testing.T) {
	m := testMachine(t)
	r, _ := m.AllocPMEM("r", 0, 70<<30, DevDax)
	s := &Stream{
		Label: "open", Placement: cpu.Placement{Core: 0}, Policy: cpu.PinCores,
		Region: r, Dir: access.Read, Pattern: access.SeqIndividual,
		AccessSize: 4096, Bytes: math.Inf(1),
	}
	res, err := m.RunFor([]*Stream{s}, 2.0)
	if err != nil {
		t.Fatalf("RunFor: %v", err)
	}
	if math.Abs(res.Elapsed-2.0) > 1e-6 {
		t.Errorf("Elapsed = %g, want 2.0", res.Elapsed)
	}
	if gb := res.Bandwidth / 1e9; gb < 3.8 || gb > 4.8 {
		t.Errorf("steady bandwidth = %.2f GB/s, want ~4.3", gb)
	}
	if _, err := m.RunFor([]*Stream{s}, 0); err == nil {
		t.Error("RunFor with zero window succeeded")
	}
}

func TestWearAccumulates(t *testing.T) {
	m := testMachine(t)
	r, _ := m.AllocPMEM("r", 0, 70<<30, DevDax)
	s := &Stream{
		Label: "w", Placement: cpu.Placement{Core: 0}, Policy: cpu.PinCores,
		Region: r, Dir: access.Write, Pattern: access.SeqIndividual,
		AccessSize: 4096, Bytes: 5e9,
	}
	if _, err := m.Run([]*Stream{s}); err != nil {
		t.Fatal(err)
	}
	if got := m.Wear(0).MediaBytesWritten(); got < 5e9*0.99 {
		t.Errorf("wear = %g, want >= ~5e9 media bytes", got)
	}
	if got := m.Wear(1).MediaBytesWritten(); got != 0 {
		t.Errorf("socket 1 wear = %g, want 0", got)
	}
}

func TestContendedRegionSlowdown(t *testing.T) {
	m := testMachine(t)
	r, _ := m.AllocPMEM("r", 0, 70<<30, DevDax)
	r.WarmFor(1)
	near := &Stream{Label: "near", Placement: cpu.Placement{Core: 0}, Policy: cpu.PinCores,
		Region: r, Dir: access.Read, Pattern: access.SeqIndividual, AccessSize: 4096, Bytes: math.Inf(1)}
	far := &Stream{Label: "far", Placement: cpu.Placement{Core: 18}, Policy: cpu.PinCores,
		Region: r, Dir: access.Read, Pattern: access.SeqIndividual, AccessSize: 4096, Bytes: math.Inf(1)}
	res, err := m.RunFor([]*Stream{near, far}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	solo, err := m.RunFor([]*Stream{{
		Label: "solo", Placement: cpu.Placement{Core: 0}, Policy: cpu.PinCores,
		Region: r, Dir: access.Read, Pattern: access.SeqIndividual, AccessSize: 4096, Bytes: math.Inf(1)}}, 1.0)
	if err != nil {
		t.Fatal(err)
	}
	// Cross-socket sharing of one region costs bandwidth per thread.
	perThreadContended := res.Bandwidth / 2
	if perThreadContended >= solo.Bandwidth {
		t.Errorf("contended per-thread %.2f >= solo %.2f GB/s", perThreadContended/1e9, solo.Bandwidth/1e9)
	}
}

func TestModeString(t *testing.T) {
	if DevDax.String() != "devdax" || FsDax.String() != "fsdax" {
		t.Errorf("Mode strings = %q, %q", DevDax.String(), FsDax.String())
	}
}

func TestPreFaultAndConfigAccessors(t *testing.T) {
	m := testMachine(t)
	if m.Config().MaxVirtualSeconds <= 0 {
		t.Error("Config() returned zero value")
	}
	fs, err := m.AllocPMEM("fs", 0, 1<<30, FsDax)
	if err != nil {
		t.Fatal(err)
	}
	if fs.Faulted() {
		t.Error("fresh fsdax region reported faulted")
	}
	if sec := fs.PreFault(); sec <= 0 {
		t.Errorf("PreFault = %g, want positive", sec)
	}
	if !fs.Faulted() {
		t.Error("region not faulted after PreFault")
	}
	dev, _ := m.AllocPMEM("dev", 0, 1<<30, DevDax)
	if sec := dev.PreFault(); sec != 0 {
		t.Errorf("devdax PreFault = %g, want 0", sec)
	}
}

func TestGroupedAndRandomStreamsInPackage(t *testing.T) {
	m := testMachine(t)
	r, _ := m.AllocPMEM("r", 0, 70<<30, DevDax)
	placements := cpu.AssignThreads(m.Topology(), cpu.PinCores, 0, 4)
	var streams []*Stream
	for i := 0; i < 4; i++ {
		streams = append(streams,
			&Stream{Label: "g", Placement: placements[i], Policy: cpu.PinCores,
				Region: r, Dir: access.Read, Pattern: access.SeqGrouped, GroupID: "grp",
				AccessSize: 256, Bytes: 1e9},
			&Stream{Label: "rnd", Placement: placements[i], Policy: cpu.PinCores,
				Region: r, Dir: access.Write, Pattern: access.Random,
				AccessSize: 256, Bytes: 1e8})
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if res.Bandwidth <= 0 {
		t.Error("no bandwidth")
	}
	// A grouped stream without a GroupID still runs (treated as one stream).
	solo := &Stream{Label: "solo-g", Placement: placements[0], Policy: cpu.PinCores,
		Region: r, Dir: access.Read, Pattern: access.SeqGrouped,
		AccessSize: 4096, Bytes: 1e9}
	if _, err := m.Run([]*Stream{solo}); err != nil {
		t.Fatal(err)
	}
}

func TestPinNonePolicyInPackage(t *testing.T) {
	m := testMachine(t)
	r, _ := m.AllocPMEM("r", 0, 70<<30, DevDax)
	placements := cpu.AssignThreads(m.Topology(), cpu.PinNone, 0, 8)
	var streams []*Stream
	for i := 0; i < 8; i++ {
		streams = append(streams, &Stream{
			Label: "np", Placement: placements[i], Policy: cpu.PinNone,
			Region: r, Dir: access.Read, Pattern: access.SeqIndividual,
			AccessSize: 4096, Bytes: 1e9,
		})
	}
	res, err := m.Run(streams)
	if err != nil {
		t.Fatal(err)
	}
	if gb := res.Bandwidth / 1e9; gb < 7.5 || gb > 10.5 {
		t.Errorf("unpinned 8-thread read = %.1f GB/s, want ~9.5", gb)
	}
}
