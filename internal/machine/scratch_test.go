package machine

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/simtrace"
	"repro/internal/topology"
)

// drainScratch empties every scratch pool: a sync.Pool keeps what it held
// before a collection as a victim cache for one more, so two empty it.
func drainScratch() {
	runtime.GC()
	runtime.GC()
}

// threadStreams places n threads with the policy on the socket, each moving
// bytes over r.
func threadStreams(m *Machine, label string, r *Region, pol cpu.PinPolicy, socket topology.SocketID,
	n int, dir access.Direction, pat access.Pattern, size int64, bytes float64) []*Stream {
	var out []*Stream
	for i, pl := range cpu.AssignThreads(m.Topology(), pol, socket, n) {
		s := &Stream{Label: label, Placement: pl, Policy: pol, Region: r, Dir: dir,
			Pattern: pat, AccessSize: size, Bytes: bytes * float64(1+i%3)}
		if pat == access.SeqGrouped {
			s.GroupID = label
		}
		out = append(out, s)
	}
	return out
}

// donate runs a machine that leaves run scratch in the pool as unlike a new
// one as it can: channels offline and a degraded UPI link rewrite the media
// and link capacities, and cold far reads, unpinned writers and 36 cores
// add every kind of dynamic resource. It returns that machine.
func donate(t *testing.T) *Machine {
	t.Helper()
	cfg := DefaultConfig()
	cfg.Faults = faultPlan(t, `{"events":[
		{"type":"channel-offline","start":0,"socket":0,"channels":2},
		{"type":"channel-offline","start":0,"socket":1,"channels":3},
		{"type":"upi-degrade","start":0,"from":0,"to":1,"factor":0.5}]}`)
	m := MustNew(cfg)
	far := alloc(m.AllocPMEM("donor-far", 1, 64<<30, DevDax))
	near := alloc(m.AllocPMEM("donor-near", 0, 64<<30, DevDax))
	streams := threadStreams(m, "donor-far", far, cpu.PinCores, 0, 18, access.Read, access.SeqIndividual, 4096, 2e9)
	streams = append(streams, threadStreams(m, "donor-unpinned", near, cpu.PinNone, 0, 18, access.Write, access.Random, 256, 1e9)...)
	if _, err := m.Run(streams); err != nil {
		t.Fatal(err)
	}
	return m
}

func alloc(r *Region, err error) *Region {
	if err != nil {
		panic(err)
	}
	return r
}

// lendCase is one machine configuration and the runs it makes, in order.
type lendCase struct {
	name string
	cfg  func(t *testing.T) Config
	mode Mode
}

var lendCases = []lendCase{
	{"healthy", func(*testing.T) Config { return DefaultConfig() }, DevDax},
	{"channel-offline", func(t *testing.T) Config {
		cfg := DefaultConfig()
		cfg.Faults = faultPlan(t, `{"events":[{"type":"channel-offline","start":0,"channels":2}]}`)
		return cfg
	}, DevDax},
	{"fsdax", func(*testing.T) Config { return DefaultConfig() }, FsDax},
	{"memory-mode", func(*testing.T) Config { return DefaultConfig() }, MemoryMode},
}

// lendPlay is what one machine's run sequence leaves behind: each run's
// result, its scratch's resource list and where the scratch came from, and
// the machine's metrics.
type lendPlay struct {
	results   []RunResult
	resources [][]string
	source    []string // "lent" (the donor's), "new", or "own" (the last run's)
	snapshot  metrics.Snapshot
}

func (p lendPlay) count(source string) int {
	n := 0
	for _, s := range p.source {
		if s == source {
			n++
		}
	}
	return n
}

// play makes the case's runs on a fresh machine: near, far-cold and
// far-warm, pinned and unpinned, 1 to 36 threads. Before each run it calls
// donate and then between.
func (tc lendCase) play(t *testing.T, between func()) lendPlay {
	t.Helper()
	m := MustNew(tc.cfg(t))
	pmem := func(name string, s topology.SocketID) *Region {
		if tc.mode == MemoryMode {
			return alloc(m.AllocMemoryMode(name, s, 200<<30))
		}
		return alloc(m.AllocPMEM(name, s, 64<<30, tc.mode))
	}
	var p lendPlay
	run := func(streams []*Stream) {
		donor := donate(t)
		between()
		own := m.scr
		res, err := m.Run(streams)
		if err != nil {
			t.Fatal(err)
		}
		switch m.scr {
		case donor.scr:
			p.source = append(p.source, "lent")
		case own:
			p.source = append(p.source, "own")
		default:
			p.source = append(p.source, "new")
		}
		p.results = append(p.results, res)
		var list []string
		for _, r := range m.scr.rm.Resources() {
			list = append(list, fmt.Sprintf("%s=%x", r.Name, math.Float64bits(r.Capacity)))
		}
		p.resources = append(p.resources, list)
	}
	near, far, warm := pmem("near", 0), pmem("far", 0), pmem("warm", 0)
	dram := alloc(m.AllocDRAM("dram", 0, 32<<30))
	warm.WarmFor(1)
	run(threadStreams(m, "near-read", near, cpu.PinCores, 0, 1, access.Read, access.SeqIndividual, 4096, 4e9))
	run(threadStreams(m, "near-write", near, cpu.PinCores, 0, 6, access.Write, access.SeqGrouped, 256, 1e9))
	run(threadStreams(m, "far-cold", far, cpu.PinCores, 1, 4, access.Read, access.SeqIndividual, 4096, 8e9))
	run(threadStreams(m, "far-warm", warm, cpu.PinCores, 1, 18, access.Read, access.SeqIndividual, 4096, 2e9))
	run(threadStreams(m, "unpinned", near, cpu.PinNone, 0, 8, access.Read, access.Random, 4096, 1e9))
	mixed := threadStreams(m, "mixed-read", near, cpu.PinNUMA, 0, 30, access.Read, access.SeqIndividual, 4096, 1e9)
	mixed = append(mixed, threadStreams(m, "mixed-write", far, cpu.PinNUMA, 1, 6, access.Write, access.SeqIndividual, 4096, 1e9)...)
	run(mixed)
	run(threadStreams(m, "dram", dram, cpu.PinNUMA, 0, 36, access.Read, access.SeqIndividual, 4096, 1e9))
	p.snapshot = m.Metrics().Snapshot()
	return p
}

// TestLentScratchMatchesFresh checks that run scratch another machine has
// just used behaves exactly like scratch built from nothing: every run's
// result (peak utilizations included), the resource list the solver sees,
// and the machine's metrics are identical. The donor runs on channels
// offline and a degraded link, so capacities it leaves behind must be
// reloaded, and it leaves every kind of dynamic resource, which must be
// dropped (results do not see their order, as the solver is order-free,
// so the resource list checks it). Under the race detector the pool drops
// Puts at random, and a scratch whose Put was dropped stays with its
// machine, so runs may reuse their machine's own scratch, with the dynamic
// resources of its earlier runs still listed; results must match all the
// same, and resource lists are compared where lent met new.
func TestLentScratchMatchesFresh(t *testing.T) {
	for _, tc := range lendCases {
		t.Run(tc.name, func(t *testing.T) {
			lent := tc.play(t, func() {})
			fresh := tc.play(t, drainScratch)
			if lent.count("lent") == 0 && !raceEnabled {
				t.Error("no run used the donor's scratch: the lent path went untested")
			}
			if n := fresh.count("lent"); n != 0 {
				t.Errorf("%d runs used the donor's scratch after the pool was drained", n)
			}
			for i := range fresh.results {
				if !reflect.DeepEqual(lent.results[i], fresh.results[i]) {
					t.Errorf("run %d on %s scratch:\n%+v\nwant, as on %s scratch:\n%+v",
						i, lent.source[i], lent.results[i], fresh.source[i], fresh.results[i])
				}
				if lent.source[i] == "lent" && fresh.source[i] == "new" &&
					!reflect.DeepEqual(lent.resources[i], fresh.resources[i]) {
					t.Errorf("run %d resources on lent scratch:\n%v\nwant:\n%v", i, lent.resources[i], fresh.resources[i])
				}
			}
			if !reflect.DeepEqual(lent.snapshot, fresh.snapshot) {
				t.Error("metrics after runs on lent scratch differ from those on new scratch")
			}
		})
	}
}

// TestReleasedScratchKeepsNoMachine checks that scratch waiting in the pool
// does not keep the machine that released it alive: once the machine is
// unreachable, one collection frees it, although the pool still holds its
// scratch for another. The machine's private registry stands in for it
// (a finalizer on the machine itself would never run: its regions point
// back at it).
func TestReleasedScratchKeepsNoMachine(t *testing.T) {
	freed := make(chan struct{})
	func() {
		cfg := DefaultConfig()
		cfg.Trace = simtrace.New()
		cfg.Metrics = metrics.New()
		m := MustNew(cfg)
		r := alloc(m.AllocPMEM("scan", 0, 64<<30, FsDax))
		if _, err := m.Run(threadStreams(m, "scan", r, cpu.PinCores, 1, 4, access.Read, access.SeqIndividual, 4096, 1e9)); err != nil {
			t.Fatal(err)
		}
		runtime.SetFinalizer(cfg.Metrics, func(*metrics.Registry) { close(freed) })
	}()
	runtime.GC()
	select {
	case <-freed:
	case <-time.After(10 * time.Second):
		t.Fatal("a machine whose scratch waits in the pool was not freed")
	}
}
