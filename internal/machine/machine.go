// Package machine assembles the hardware models (topology, Optane DIMMs,
// DRAM, SSD, UPI, CPU demand) into a simulated server on which memory
// workloads run in virtual time. It is the substrate every experiment and
// both SSB engines execute on.
//
// A Machine owns persistent state: allocated memory regions, NUMA directory
// warmth (Section 3.4's far-access warm-up), fsdax page-fault progress
// (Section 2.3), and Optane wear counters. A call to Run converts a set of
// access streams (one per simulated thread) into fluid-solver flows whose
// per-byte resource costs are derived from the mechanism models, then
// advances virtual time until the streams complete.
package machine

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/dramdimm"
	"repro/internal/faults"
	"repro/internal/interleave"
	"repro/internal/metrics"
	"repro/internal/simtrace"
	"repro/internal/ssd"
	"repro/internal/topology"
	"repro/internal/upi"
	"repro/internal/xpdimm"
)

// Mode is the PMEM App Direct access mode (Section 2.3).
type Mode int

const (
	// DevDax maps PMEM as a character device: no filesystem, no page cache,
	// no page-fault zeroing. The paper's recommended mode (best practice #7).
	DevDax Mode = iota
	// FsDax maps PMEM through a DAX filesystem; initial page faults zero
	// 2 MiB pages, costing 5-10% bandwidth until the region is faulted in.
	FsDax
	// MemoryMode exposes PMEM as volatile main memory with the socket's
	// DRAM acting as an inaccessible "L4" cache in front of it
	// (Section 2.1). Working sets that fit the DRAM cache run at DRAM
	// speed; larger ones degrade toward raw PMEM. No persistence: "it is
	// not guaranteed that dirty cache lines in DRAM are persisted in case
	// of power loss".
	MemoryMode
)

func (m Mode) String() string {
	switch m {
	case FsDax:
		return "fsdax"
	case MemoryMode:
		return "memory-mode"
	default:
		return "devdax"
	}
}

// Config collects every model's parameters plus machine-level calibration.
type Config struct {
	Topology topology.Config
	PMEM     xpdimm.Params
	DRAM     dramdimm.Params
	UPI      upi.Params
	CPU      cpu.Params
	SSD      ssd.Params

	// PrefetcherEnabled toggles the L2 hardware prefetcher (the paper flips
	// it via MSR to explain the grouped-access dip; Section 3.1).
	PrefetcherEnabled bool

	// GroupedReadWindowFactor scales the instantaneous address window of a
	// grouped read set beyond threads x accessSize (outstanding reads in the
	// RPQ widen the window the DIMMs see).
	GroupedReadWindowFactor float64
	// GroupedWriteWindowFactor does the same for writes (WPQ depth; writes
	// are masked by the iMC, so many more are in flight).
	GroupedWriteWindowFactor float64
	// PrefetchWasteFactor converts prefetcher inefficiency into wasted media
	// traffic for grouped reads: amplification = 1 + (1-eff)*factor. This is
	// what carves the 1-2 KiB dip into delivered bandwidth (Figure 3a).
	PrefetchWasteFactor float64
	// FsdaxColdPenalty is the demand fraction lost to page faults while an
	// fsdax region is being touched for the first time (Section 2.3:
	// devdax is 5-10% faster until pages are faulted).
	FsdaxColdPenalty float64
	// PreFaultSecPerByte is the cost of explicitly pre-faulting fsdax pages
	// (0.5 ms per 2 MiB page: "pre-faulting 1 GB of PMEM takes at least
	// 0.25 seconds").
	PreFaultSecPerByte float64
	// IMCHeadroom sizes each iMC's queue-drain capacity relative to the
	// bandwidth of its three channels; >1 means the iMC is never the
	// bottleneck on well-distributed traffic.
	IMCHeadroom float64
	// MaxVirtualSeconds aborts runaway runs.
	MaxVirtualSeconds float64

	// Faults, when non-nil, schedules deterministic hardware degradation on
	// the machine's lifetime simulated-time axis: thermal DIMM throttling,
	// XPBuffer shrinkage, channels going offline, UPI link degradation or
	// outage. The plan is normalized at machine construction; because the
	// field serializes with the rest of the config it participates in
	// pmemd's content-addressed cache identity, so a degraded run replays
	// byte-identically from cache.
	Faults *faults.Plan `json:",omitempty"`

	// Metrics is the registry the machine's simulation counters are recorded
	// into (per-channel bytes, XPBuffer hit/miss, UPI crossings, prefetch
	// efficiency, ...). Nil means the machine records into a private registry
	// reachable via Machine.Metrics; several machines may share one registry
	// (how an experiment aggregates across its PMEM and DRAM machines).
	Metrics *metrics.Registry `json:"-"`

	// Trace, when non-nil, records the machine's activity as a simulated-time
	// timeline: run/stream spans, per-socket media activity, UPI link traffic
	// and directory warm-up phases. Each machine registers as one trace
	// process; consecutive runs are laid out end to end. Like Metrics, a
	// recorder may be shared by several machines.
	Trace *simtrace.Recorder `json:"-"`
}

// DefaultConfig returns the fully calibrated model of the paper's platform.
func DefaultConfig() Config {
	return Config{
		Topology:                 topology.DefaultServer(),
		PMEM:                     xpdimm.DefaultParams(),
		DRAM:                     dramdimm.DefaultParams(),
		UPI:                      upi.DefaultParams(),
		CPU:                      cpu.DefaultParams(),
		SSD:                      ssd.DefaultParams(),
		PrefetcherEnabled:        true,
		GroupedReadWindowFactor:  1.5,
		GroupedWriteWindowFactor: 4.0,
		PrefetchWasteFactor:      0.7,
		FsdaxColdPenalty:         0.07,
		PreFaultSecPerByte:       0.5e-3 / (2 << 20),
		IMCHeadroom:              1.12,
		MaxVirtualSeconds:        1e6,
	}
}

// Machine is a simulated server.
type Machine struct {
	cfg     Config
	topo    *topology.Topology
	layout  *interleave.Layout
	warmth  upi.Warmth
	wear    []xpdimm.Wear // per socket
	metrics *metrics.Registry
	rec     *recorder
	trace   *simtrace.Process
	runSeq  int
	// chCursor rotates per-channel traffic attribution per socket, mirroring
	// the round-robin stripe rotation of the interleave layout.
	chCursor []int

	regions      []*Region
	nextRegionID int

	// Fault-injection state. clock is the machine's lifetime simulated time
	// (runs and pre-faults advance it); the injector schedules degradation
	// against it. faultCursor is the last clock value whose fault
	// transitions have been reported (starts before zero so a t=0 fault
	// still gets its activation edge); faultStartTrace remembers each active
	// fault's activation point in trace coordinates so its span can be
	// emitted at recovery; minMediaScale tracks the deepest throttle seen.
	// faultStartTrace and degraded are made only for a machine with a plan.
	inj             *faults.Injector
	clock           float64
	faultCursor     float64
	faultStartTrace map[int]float64
	minMediaScale   float64
	// degraded caches channel-offline interleave layouts by online count.
	degraded map[int]*interleave.Layout

	// shape is what the machine shares with every machine of its topology
	// shape: frozen metric names and the pool that lends run scratch (a run
	// model and a fluid engine, see runScratch). scr is the scratch of the
	// machine's last run and lease its claim on it: while no other machine
	// has taken scr, the next run reuses it untouched; otherwise the run
	// takes scratch from the pool, reset to what a new one would be, or
	// builds one. Runs on one machine were already serialized by the
	// lifetime clock, so lending the scratch does not narrow the
	// concurrency contract.
	shape *shape
	scr   *runScratch
	lease uint64
}

// New builds a machine from the configuration.
func New(cfg Config) (*Machine, error) {
	topo, err := topology.New(cfg.Topology)
	if err != nil {
		return nil, err
	}
	if cfg.MaxVirtualSeconds <= 0 {
		return nil, fmt.Errorf("machine: MaxVirtualSeconds must be positive")
	}
	reg := cfg.Metrics
	if reg == nil {
		reg = metrics.New()
	}
	if cfg.Faults != nil {
		plan, err := cfg.Faults.Normalize()
		if err != nil {
			return nil, err
		}
		cfg.Faults = plan
	}
	m := &Machine{
		cfg:           cfg,
		topo:          topo,
		layout:        interleave.MustNewLayout(topo.ChannelsPerSocket(), cfg.Topology.InterleaveBytes),
		metrics:       reg,
		chCursor:      make([]int, topo.Sockets()),
		faultCursor:   -1,
		minMediaScale: 1,
		wear:          make([]xpdimm.Wear, topo.Sockets()),
		shape:         shapeOf(topo),
	}
	if cfg.Faults != nil {
		inj, err := cfg.Faults.Compile(topo.Sockets(), topo.ChannelsPerSocket())
		if err != nil {
			return nil, err
		}
		m.inj = inj
		m.faultStartTrace = map[int]float64{}
		m.degraded = map[int]*interleave.Layout{}
	}
	m.rec = newRecorder(reg, m.shape)
	m.traceInit()
	return m, nil
}

// MustNew panics on configuration errors; for known-good configs.
func MustNew(cfg Config) *Machine {
	m, err := New(cfg)
	if err != nil {
		panic(err)
	}
	return m
}

// Topology exposes the machine's layout.
func (m *Machine) Topology() *topology.Topology { return m.topo }

// Config exposes the machine's configuration.
func (m *Machine) Config() Config { return m.cfg }

// Metrics exposes the registry the machine records its simulation counters
// into (the one from Config.Metrics, or a private registry if none was set).
func (m *Machine) Metrics() *metrics.Registry { return m.metrics }

// Wear returns the Optane wear counter of a socket.
func (m *Machine) Wear(s topology.SocketID) *xpdimm.Wear { return &m.wear[s] }

// Region is a named allocation on one socket's PMEM, DRAM, or on the SSD.
type Region struct {
	id     int
	m      *Machine
	Name   string
	Class  access.DeviceClass
	Socket topology.SocketID
	Size   int64
	Mode   Mode // PMEM only
	// CoherenceStable marks long-lived read-mostly data whose cross-socket
	// directory entries have settled into shared state: concurrent reads
	// from both sockets no longer trigger the remapping/directory-write
	// penalties of Section 3.5. The paper's same-region benchmark (Figure 6
	// "1 Near 1 Far") re-establishes mappings every run and stays penalized;
	// a database's resident tables do not. Set by the SSB engines for their
	// pre-warmed, read-only table regions.
	CoherenceStable bool

	faultedBytes float64 // fsdax first-touch progress
}

// AllocPMEM allocates an interleaved PMEM region on a socket.
func (m *Machine) AllocPMEM(name string, s topology.SocketID, size int64, mode Mode) (*Region, error) {
	if err := m.checkAlloc(s, size); err != nil {
		return nil, err
	}
	var used int64
	for _, r := range m.regions {
		if r.Class == access.PMEM && r.Socket == s {
			used += r.Size
		}
	}
	if used+size > m.topo.PMEMSocketBytes() {
		return nil, fmt.Errorf("machine: PMEM on socket %d exhausted: %d + %d > %d",
			s, used, size, m.topo.PMEMSocketBytes())
	}
	return m.addRegion(name, access.PMEM, s, size, mode), nil
}

// AllocDRAM allocates a DRAM region bound to a socket.
func (m *Machine) AllocDRAM(name string, s topology.SocketID, size int64) (*Region, error) {
	if err := m.checkAlloc(s, size); err != nil {
		return nil, err
	}
	var used int64
	for _, r := range m.regions {
		if r.Class == access.DRAM && r.Socket == s {
			used += r.Size
		}
	}
	if used+size > m.topo.DRAMSocketBytes() {
		return nil, fmt.Errorf("machine: DRAM on socket %d exhausted: %d + %d > %d",
			s, used, size, m.topo.DRAMSocketBytes())
	}
	return m.addRegion(name, access.DRAM, s, size, DevDax), nil
}

// AllocMemoryMode allocates a PMEM region operated in Memory Mode: the
// socket's DRAM becomes its cache (Section 2.1). The region is volatile.
func (m *Machine) AllocMemoryMode(name string, s topology.SocketID, size int64) (*Region, error) {
	r, err := m.AllocPMEM(name, s, size, MemoryMode)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// MemoryModeCacheBytes is the DRAM capacity usable as Memory Mode cache on
// one socket (the whole socket's DRAM minus a small OS share).
func (m *Machine) MemoryModeCacheBytes() int64 {
	return int64(float64(m.topo.DRAMSocketBytes()) * 0.9)
}

// AllocSSD allocates a file-like extent on the NVMe SSD.
func (m *Machine) AllocSSD(name string, size int64) (*Region, error) {
	if size <= 0 {
		return nil, fmt.Errorf("machine: size must be positive, got %d", size)
	}
	return m.addRegion(name, access.SSD, 0, size, DevDax), nil
}

func (m *Machine) checkAlloc(s topology.SocketID, size int64) error {
	if int(s) < 0 || int(s) >= m.topo.Sockets() {
		return fmt.Errorf("machine: no such socket %d", s)
	}
	if size <= 0 {
		return fmt.Errorf("machine: size must be positive, got %d", size)
	}
	return nil
}

func (m *Machine) addRegion(name string, class access.DeviceClass, s topology.SocketID, size int64, mode Mode) *Region {
	r := &Region{id: m.nextRegionID, m: m, Name: name, Class: class, Socket: s, Size: size, Mode: mode}
	m.nextRegionID++
	m.regions = append(m.regions, r)
	m.rec.recordAlloc(class, size)
	return r
}

// Free releases a region's capacity accounting.
func (m *Machine) Free(r *Region) {
	for i, reg := range m.regions {
		if reg == r {
			m.regions = append(m.regions[:i], m.regions[i+1:]...)
			m.rec.regionFrees.Inc()
			return
		}
	}
}

// PreFault touches every page of an fsdax region, returning the virtual
// seconds spent (0.25 s per GB, Section 2.3). Devdax regions return 0: the
// memory "does not need to be zeroed".
func (r *Region) PreFault() float64 {
	if r.Class != access.PMEM || r.Mode != FsDax || r.faultedBytes >= float64(r.Size) {
		return 0
	}
	remaining := float64(r.Size) - r.faultedBytes
	r.faultedBytes = float64(r.Size)
	sec := remaining * r.m.cfg.PreFaultSecPerByte
	r.m.rec.prefaultB.Add(remaining)
	r.m.rec.prefaultSec.Add(sec)
	traceOff := r.m.traceCursor() - r.m.clock
	r.m.tracePreFault(r, sec, remaining)
	prev := r.m.clock
	r.m.clock += sec
	r.m.faultTick(prev, r.m.clock, traceOff)
	return sec
}

// Faulted reports whether the region's pages are fully faulted in. Only
// fsdax regions pay fault costs; devdax and Memory Mode do not.
func (r *Region) Faulted() bool {
	return r.Class != access.PMEM || r.Mode != FsDax || r.faultedBytes >= float64(r.Size)
}

// WarmFor marks the region's coherency mappings established for far access
// by the given socket — the paper's single-thread pre-read trick
// (Section 3.4) or data that the far socket has already scanned once.
func (r *Region) WarmFor(s topology.SocketID) {
	k := upi.Key{Region: r.id, Socket: int(s)}
	r.m.warmth.MarkWarm(k)
	r.m.rec.upiMarkWarm.Inc()
	r.m.traceWarmEvent("mark-warm", k)
}

// IsWarmFor reports far-access warmth for a socket.
func (r *Region) IsWarmFor(s topology.SocketID) bool {
	return r.m.warmth.IsWarm(upi.Key{Region: r.id, Socket: int(s)})
}

// CoolFor resets warmth (mapping reassigned away).
func (r *Region) CoolFor(s topology.SocketID) {
	k := upi.Key{Region: r.id, Socket: int(s)}
	r.m.warmth.Invalidate(k)
	r.m.rec.upiInval.Inc()
	r.m.traceWarmEvent("invalidate", k)
}
