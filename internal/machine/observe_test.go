package machine

import (
	"math"
	"sync"
	"testing"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/metrics"
)

// TestNewAllocs guards the fixed cost of a fresh machine, which the paper's
// characterization grid pays once per point (core.MeasurePoints builds a new
// machine for every point). Metric names are frozen into an index once per
// topology shape, and a machine's private registry binds that index with one
// slab per kind, so construction must not grow with the ~115 metrics a
// machine records.
func TestNewAllocs(t *testing.T) {
	cfg := DefaultConfig()
	MustNew(cfg)         // builds the topology shape's name index
	const maxAllocs = 16 // measured 13
	if n := testing.AllocsPerRun(50, func() { MustNew(cfg) }); n > maxAllocs {
		t.Errorf("New allocates %.0f/op, want <= %d", n, maxAllocs)
	}
}

// TestRecorderBindsNamedHandles checks that each kind of recorder field holds
// the registry handle of its documented name.
func TestRecorderBindsNamedHandles(t *testing.T) {
	reg := metrics.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	r := MustNew(cfg).rec
	for name, h := range map[string]*metrics.Counter{
		"machine.run.count":                   r.runCount,
		"fault.rewarm.invalidations":          r.faultRewarm,
		"cpu.pin.numa.bytes":                  r.pinBytes[cpu.PinNUMA],
		"pmem.s1.directory.write_media_bytes": r.dirWrites[1],
		"xpdimm.s1.readbuf.media_bytes":       r.rbufMedia[1],
		"pmem.s1.ch5.write_media_bytes":       r.chWriteMedia[1][5],
		"upi.s1to0.req_bytes":                 r.upiReq[1][0],
	} {
		if h == nil || h != reg.Counter(name) {
			t.Errorf("counter %s is not bound to its registry handle", name)
		}
	}
	for name, h := range map[string]*metrics.Gauge{
		"fault.media_scale.min":      r.faultScaleMin,
		"xpdimm.s1.wear.media_bytes": r.wearBytes[1],
		"pmem.s0.ch3.util.mean":      r.chUtilMean[0][3],
		"upi.s0to1.util.peak":        r.upiUtilPeak[0][1],
	} {
		if h == nil || h != reg.Gauge(name) {
			t.Errorf("gauge %s is not bound to its registry handle", name)
		}
	}
	if r.upiData[0][0] != nil || r.upiUtilPeak[1][1] != nil {
		t.Error("UPI handles on the diagonal must be nil")
	}
	if got := r.faultScaleMin.Value(); got != 1 {
		t.Errorf("fault.media_scale.min rests at %g, want 1", got)
	}
}

// TestSharedRegistryAccumulates runs several machines recording into one
// registry, as an experiment does with its PMEM and DRAM machines: all must
// add into the same counters. Building them concurrently also exercises the
// shared name cache and the bulk registry call under the race detector.
func TestSharedRegistryAccumulates(t *testing.T) {
	const machines = 4
	reg := metrics.New()
	cfg := DefaultConfig()
	cfg.Metrics = reg
	moved := make([]float64, machines)
	var wg sync.WaitGroup
	for i := range moved {
		wg.Add(1)
		go func() {
			defer wg.Done()
			m := MustNew(cfg)
			r, err := m.AllocPMEM("shared", 0, 1<<30, DevDax)
			if err != nil {
				t.Error(err)
				return
			}
			res, err := m.Run([]*Stream{{
				Label: "t0", Placement: cpu.Placement{Core: 0}, Policy: cpu.PinCores,
				Region: r, Dir: access.Read, Pattern: access.SeqIndividual,
				AccessSize: 4096, Bytes: 1e9,
			}})
			if err != nil {
				t.Error(err)
				return
			}
			moved[i] = res.TotalBytes
		}()
	}
	wg.Wait()
	var bytes float64
	for _, b := range moved {
		bytes += b
	}
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"machine.run.count":      machines,
		"machine.region.allocs":  machines,
		"cpu.pin.cores.streams":  machines,
		"pmem.s0.read.app_bytes": bytes,
		"cpu.pin.cores.bytes":    bytes,
	} {
		if got, _ := snap.Get(name); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s = %g, want %g", name, got, want)
		}
	}
}
