package machine

import (
	"math"
	"strconv"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/fluid"
	"repro/internal/interleave"
	"repro/internal/topology"
	"repro/internal/upi"
)

// Coverage windows: how many interleave stripes one stream keeps in flight,
// which determines how many DIMMs serve it concurrently. Writes are masked
// by the iMC's WPQ and keep far more traffic outstanding than demand reads.
const (
	readCoverageStripes  = 2
	writeCoverageStripes = 6
)

// runModel implements fluid.Model for one Machine.Run invocation. It
// recomputes every flow's cost vector from the mechanism models before each
// solver step, so population changes (a stream finishing) and state changes
// (a region warming up) reshape the allocation mid-run.
type runModel struct {
	m       *Machine // nil while the scratch waits in its shape's pool
	streams []*Stream
	flows   []*fluid.Flow
	// flowPool owns the Flow structs; flows is flowPool[:len(streams)]. The
	// structs (and their Costs backing arrays) are reused across runs.
	flowPool []*fluid.Flow

	// clock0 is the machine's lifetime clock at run start; clock0 + now is
	// the absolute simulated time the fault injector is queried at. now is
	// the run-relative time of the current Prepare, cached for computeCosts.
	clock0 float64
	now    float64

	pmemMedia  []*fluid.Resource // per socket, utilization (capacity 1)
	dramMedia  []*fluid.Resource
	dramSystem *fluid.Resource
	upiDirs    map[[2]int]*fluid.Resource
	ssdRes     *fluid.Resource
	coldRes    map[upi.Key]dynRes
	unpinned   map[access.Direction]dynRes
	// threadRes serializes flows that share a logical core: a thread that
	// both scans and probes divides its cycles between the two, it does not
	// run them in parallel. Capacity 1 = one core-second per second.
	threadRes map[threadKey]dynRes
	// adoptions counts the machines the scratch has been armed for (see
	// adopt); a dynamic resource is in the resource list only once it has
	// been used since the latest.
	adoptions uint64

	// uW is the per-socket PMEM media write-utilization estimate used by the
	// mixed-workload read inflation (Section 5.1); uWDram likewise for DRAM.
	// Both are resolved by fixed-point iteration inside Prepare; uWPrev holds
	// the previous iteration's uW then uWDram, to detect a repeat.
	uW     []float64
	uWDram []float64
	uWPrev []float64

	// scratch per-flow bookkeeping, rebuilt each Prepare.
	fctx []flowCtx

	// solver holds the progressive-filling scratch reused across the
	// write-share fixed-point iterations; with it, a steady-population step
	// allocates nothing.
	solver fluid.Solver

	// Resource-list cache: resCache holds every resource in an order that is
	// stable and append-only while one machine holds the scratch (fixed
	// resources first, then dynamic ones in first-use order), so peaks —
	// each resource's highest utilization across the run, the paper's
	// VTune-style bottleneck diagnostic — can live in a parallel slice
	// instead of a name-keyed map. resValid is cleared whenever a dynamic
	// resource joins the list, and when adopt restarts it.
	resCache []*fluid.Resource
	peaks    []float64
	resValid bool
	upiList  []*fluid.Resource
	dynList  []*fluid.Resource // cold/unpinned/thread resources in the list (see dynamic)
	threadOf []*fluid.Resource // per-stream thread resource, resolved once

	// dirty marks machine-state changes (directory warm-up flips, fsdax
	// fault-in completion) that invalidate the memoized cost model; while
	// clear, Steady lets the engine fast-forward without re-solving.
	dirty bool

	// gather scratch, reused across steps.
	pop           population
	gsRegionSocks map[int]uint64 // region id -> socket bitmask
	gsPkCore      map[pkCoreKey]bool

	// Horizon scratch, reused across steps.
	hzColdKeys    []upi.Key
	hzColdRates   []float64
	hzRegions     []*Region
	hzRegionRates []float64

	// tr accumulates the run's timeline bookkeeping; nil when the machine has
	// no trace recorder attached.
	tr *runTrace
}

// dynRes is a dynamic resource and the adoption it was last listed in.
type dynRes struct {
	r        *fluid.Resource
	adoption uint64
}

// dynamic returns the dynamic resource for key, making it on first use and
// appending it to the resource list on first use since the scratch was
// adopted, so the list holds dynamic resources in the order the current
// machine's runs first used them.
func dynamic[K comparable](rm *runModel, made map[K]dynRes, key K, name func() string) *fluid.Resource {
	d, ok := made[key]
	if !ok || d.adoption != rm.adoptions {
		if !ok {
			d.r = &fluid.Resource{Name: name()}
		}
		d.adoption = rm.adoptions
		made[key] = d
		rm.dynList = append(rm.dynList, d.r)
		rm.resValid = false
	}
	return d.r
}

type pkCoreKey struct {
	pk   policyKey
	core topology.CoreID
}

type flowCtx struct {
	active           bool
	far              bool
	cold             bool
	coldKey          upi.Key
	writeUtilPerByte float64 // media write utilization per byte (for uW)
	writeWA          float64 // effective write amplification (for wear)
	touchesRegion    *Region

	// Metrics bookkeeping, filled by computeCosts and consumed by Advance.
	readRA       float64 // media traffic per app byte read (incl. HT/prefetch waste)
	readBaseRA   float64 // media traffic from access granularity alone
	dirWritePerB float64 // directory-update media writes per far contended read byte
	engaged      int     // channels engaged (rounded dimmParallelism)
	mmHit        float64 // Memory Mode DRAM-cache hit fraction; -1 = not Memory Mode
	prefetched   bool    // sequential PMEM read with the prefetcher engaged
	prefetchEff  float64
}

// newRunModel builds run scratch for m's topology shape and arms it for a
// run of m over streams.
func newRunModel(m *Machine, streams []*Stream) *runModel {
	sockets := m.topo.Sockets()
	rm := &runModel{
		upiDirs:   make(map[[2]int]*fluid.Resource),
		coldRes:   make(map[upi.Key]dynRes),
		unpinned:  make(map[access.Direction]dynRes),
		threadRes: make(map[threadKey]dynRes),
		uW:        make([]float64, sockets),
		uWDram:    make([]float64, sockets),
		uWPrev:    make([]float64, 2*sockets),
	}
	for s := 0; s < sockets; s++ {
		rm.pmemMedia = append(rm.pmemMedia, &fluid.Resource{Name: "pmem-media-" + strconv.Itoa(s)})
		rm.dramMedia = append(rm.dramMedia, &fluid.Resource{Name: "dram-media-" + strconv.Itoa(s)})
	}
	rm.dramSystem = &fluid.Resource{Name: "dram-system"}
	rm.ssdRes = &fluid.Resource{Name: "ssd"}
	for a := 0; a < sockets; a++ {
		for b := 0; b < sockets; b++ {
			if a != b {
				r := &fluid.Resource{Name: "upi-" + strconv.Itoa(a) + "-" + strconv.Itoa(b)}
				rm.upiDirs[[2]int{a, b}] = r
				rm.upiList = append(rm.upiList, r)
			}
		}
	}
	rm.pop = population{
		pmemWriteStreams: map[topology.SocketID]int{},
		individualFlight: map[topology.SocketID]int{},
		groupCount:       map[string]int{},
		contended:        map[int]bool{},
		coldCount:        map[upi.Key]int{},
		unpinnedCount:    map[access.Direction]int{},
		policyGroup:      map[policyKey]int{},
	}
	rm.gsRegionSocks = map[int]uint64{}
	rm.gsPkCore = map[pkCoreKey]bool{}
	rm.adopt(m, streams)
	return rm
}

// adopt arms scratch built for m's topology shape, new or last used by
// another machine, for a run of m over streams, leaving it as a new
// newRunModel would be: every fixed resource's capacity comes from m's
// Config (faulted runs rewrite the media and UPI capacities), the dynamic
// resources are dropped from the resource list so its order restarts with
// the fixed ones (their structs stay made, for reuse), and the peaks restart
// at zero.
func (rm *runModel) adopt(m *Machine, streams []*Stream) {
	rm.m = m
	for s := range rm.pmemMedia {
		rm.pmemMedia[s].Capacity = 1
		rm.dramMedia[s].Capacity = 1
	}
	rm.dramSystem.Capacity = m.cfg.DRAM.SystemReadBytesPerSec
	rm.ssdRes.Capacity = 1
	for _, r := range rm.upiList {
		r.Capacity = m.cfg.UPI.RawBytesPerSecPerDir
	}
	rm.adoptions++
	rm.dynList = rm.dynList[:0]
	rm.resValid = false
	rm.peaks = rm.peaks[:0]
	rm.reset(streams)
}

// detach ends a run: it drops every pointer the scratch holds to the
// machine, its streams, regions and trace, so that scratch waiting in the
// pool keeps none of them alive.
func (rm *runModel) detach() {
	rm.m = nil
	rm.streams = nil
	rm.tr = nil
	clear(rm.fctx[:cap(rm.fctx)])
	clear(rm.hzRegions[:cap(rm.hzRegions)])
}

// reset re-arms the model for a new run over streams, reusing every piece of
// scratch the previous run left behind: the fixed resources, the dynamic
// resource maps (capacities are refreshed by every computeCosts), the flow
// pool with its cost-vector backing arrays, and the solver scratch. This is
// what takes a warmed machine's per-run steady state to zero allocations —
// newRunModel used to be the catalogue's single largest allocation source.
func (rm *runModel) reset(streams []*Stream) {
	m := rm.m
	rm.clock0 = m.clock
	rm.now = 0
	rm.streams = streams
	for len(rm.flowPool) < len(streams) {
		rm.flowPool = append(rm.flowPool, &fluid.Flow{})
	}
	rm.flows = rm.flowPool[:len(streams)]
	for i, s := range streams {
		f := rm.flows[i]
		costs := f.Costs[:0]
		*f = fluid.Flow{Name: s.Label, Remaining: s.Bytes, Costs: costs}
	}
	if cap(rm.fctx) < len(streams) {
		rm.fctx = make([]flowCtx, len(streams))
	}
	rm.fctx = rm.fctx[:len(streams)]
	if cap(rm.threadOf) < len(streams) {
		rm.threadOf = make([]*fluid.Resource, len(streams))
	}
	rm.threadOf = rm.threadOf[:len(streams)]
	// Per-run state the mechanisms read before first writing: thread-resource
	// bindings (streams map to different cores run to run), the write-share
	// fixed-point estimates, and the peak-utilization diagnostics.
	for i := range rm.threadOf {
		rm.threadOf[i] = nil
	}
	for s := range rm.uW {
		rm.uW[s] = 0
		rm.uWDram[s] = 0
	}
	for i := range rm.peaks {
		rm.peaks[i] = 0
	}
	rm.dirty = false
	// Stale dynamic resources from earlier runs stay registered: Solve zeroes
	// their loads, nothing costs against them, and zero peaks are excluded
	// from the result map, so they are inert until their key recurs.
	if m.trace != nil {
		rm.tr = newRunTrace(m.topo.Sockets(), m.trace.Cursor())
	} else {
		rm.tr = nil
	}
}

// population holds per-step aggregate statistics over active streams.
type population struct {
	pmemWriteStreams map[topology.SocketID]int // write streams targeting a socket's PMEM
	individualFlight map[topology.SocketID]int // in-flight stripes of individual streams per socket
	groupCount       map[string]int            // streams per grouped-access set
	contended        map[int]bool              // region id accessed from both sockets
	coldCount        map[upi.Key]int           // cold far readers per (region, socket)
	unpinnedCount    map[access.Direction]int
	policyGroup      map[policyKey]int // distinct occupied cores per (policy, thread socket)
}

type policyKey struct {
	policy cpu.PinPolicy
	socket topology.SocketID
}

type threadKey struct {
	policy cpu.PinPolicy
	core   topology.CoreID
}

func (rm *runModel) gather() population {
	p := rm.pop
	clear(p.pmemWriteStreams)
	clear(p.individualFlight)
	clear(p.groupCount)
	clear(p.contended)
	clear(p.coldCount)
	clear(p.unpinnedCount)
	clear(p.policyGroup)
	clear(rm.gsRegionSocks)
	clear(rm.gsPkCore)
	for i, s := range rm.streams {
		f := rm.flows[i]
		act := !f.Done && f.Remaining > 0
		rm.fctx[i] = flowCtx{active: act}
		if !act {
			continue
		}
		ts := rm.m.threadSocket(s)
		pk := policyKey{s.Policy, ts}
		if key := (pkCoreKey{pk, s.Placement.Core}); !rm.gsPkCore[key] {
			rm.gsPkCore[key] = true
			p.policyGroup[pk]++
		}
		if s.Policy == cpu.PinNone {
			p.unpinnedCount[s.Dir]++
		}
		rm.gsRegionSocks[s.Region.id] |= 1 << uint(ts)
		if s.Region.Class == access.PMEM {
			if s.Dir == access.Write {
				p.pmemWriteStreams[s.Region.Socket]++
			}
			if s.Pattern == access.SeqIndividual {
				stripes := readCoverageStripes
				if s.Dir == access.Write {
					stripes = writeCoverageStripes
				}
				p.individualFlight[s.Region.Socket] += stripes
			}
			if s.Pattern == access.SeqGrouped && s.GroupID != "" {
				p.groupCount[s.GroupID]++
			}
			far := s.Policy != cpu.PinNone && ts != s.Region.Socket
			if far && s.Dir == access.Read {
				key := upi.Key{Region: s.Region.id, Socket: int(ts)}
				if !rm.m.warmth.IsWarm(key) {
					p.coldCount[key]++
				}
			}
		}
	}
	for id, mask := range rm.gsRegionSocks {
		if mask&(mask-1) != 0 { // accessed from more than one socket
			if r := rm.regionByID(id); r != nil && r.CoherenceStable {
				continue
			}
			p.contended[id] = true
		}
	}
	return p
}

// dimmParallelism returns how many of the socket's DIMMs serve the stream.
// lay is the socket's current interleave layout — the healthy one, or a
// reduced layout while a channel-offline fault holds.
func (rm *runModel) dimmParallelism(s *Stream, pop population, lay *interleave.Layout) float64 {
	switch s.Pattern {
	case access.Random:
		return float64(lay.DIMMs()) // interleaving spreads a random region across all DIMMs
	case access.SeqGrouped:
		n := pop.groupCount[s.GroupID]
		if s.GroupID == "" || n == 0 {
			n = 1
		}
		factor := rm.m.cfg.GroupedReadWindowFactor
		if s.Dir == access.Write {
			factor = rm.m.cfg.GroupedWriteWindowFactor
		}
		window := int64(float64(int64(n)*s.AccessSize) * factor)
		return lay.WindowParallelism(window)
	default: // SeqIndividual
		k := pop.individualFlight[s.Region.Socket]
		if k == 0 {
			k = readCoverageStripes
		}
		return lay.IndependentParallelism(k)
	}
}

// Prepare implements fluid.Model.
func (rm *runModel) Prepare(now float64, flows []*fluid.Flow) {
	rm.now = now
	pop := rm.gather()
	// Fixed point on the mixed-workload write-utilization estimates, capped
	// at three iterations: costs depend on uW, which depends on the solved
	// rates. Within one call costs are a pure function of the population and
	// uW/uWDram, so once the estimates repeat bit for bit the costs in place
	// are the ones every further iteration, and the final recompute, would
	// rebuild.
	rm.dirty = false
	for iter := 0; iter < 3; iter++ {
		rm.computeCosts(pop)
		rm.solver.Solve(rm.flows, rm.Resources())
		if !rm.updateWriteShares() {
			return
		}
	}
	rm.computeCosts(pop)
}

// Steady implements fluid.SteadyModel: with no fault injector attached (whose
// piecewise-linear profiles change capacities continuously) and no state flip
// recorded by Advance since the last Prepare, the cost model is unchanged and
// the engine may fast-forward to the next event horizon without re-solving.
func (rm *runModel) Steady(now float64) bool {
	return !rm.dirty && rm.m.inj == nil
}

// updateWriteShares re-estimates uW/uWDram from the solved rates and
// reports whether any estimate changed (bit equality, no tolerance).
func (rm *runModel) updateWriteShares() bool {
	copy(rm.uWPrev, rm.uW)
	copy(rm.uWPrev[len(rm.uW):], rm.uWDram)
	for s := range rm.uW {
		rm.uW[s] = 0
		rm.uWDram[s] = 0
	}
	for i, f := range rm.flows {
		ctx := rm.fctx[i]
		if !ctx.active || ctx.writeUtilPerByte == 0 {
			continue
		}
		st := rm.streams[i]
		if st.Region.Class == access.PMEM {
			rm.uW[st.Region.Socket] += f.Rate * ctx.writeUtilPerByte
		} else if st.Region.Class == access.DRAM {
			rm.uWDram[st.Region.Socket] += f.Rate * ctx.writeUtilPerByte
		}
	}
	changed := false
	for s := range rm.uW {
		rm.uW[s] = math.Min(rm.uW[s], 1)
		rm.uWDram[s] = math.Min(rm.uWDram[s], 1)
		changed = changed ||
			math.Float64bits(rm.uW[s]) != math.Float64bits(rm.uWPrev[s]) ||
			math.Float64bits(rm.uWDram[s]) != math.Float64bits(rm.uWPrev[len(rm.uW)+s])
	}
	return changed
}

func (rm *runModel) computeCosts(pop population) {
	cfg := &rm.m.cfg
	topo := rm.m.topo
	d := float64(topo.ChannelsPerSocket())

	// Fault-injection snapshot: media capacity, channel availability, and
	// UPI link derates are pure functions of absolute simulated time and
	// stay constant within a solver step (Horizon breaks steps at every
	// fault boundary). Healthy machines skip this block entirely, so their
	// solver path is bit-for-bit the pre-fault-engine one.
	if inj := rm.m.inj; inj != nil {
		at := rm.clock0 + rm.now
		for s := 0; s < topo.Sockets(); s++ {
			online := float64(topo.ChannelsPerSocket() - inj.ChannelsOffline(s, at))
			rm.pmemMedia[s].Capacity = inj.MediaScale(s, at) * online / d
		}
		for key, res := range rm.upiDirs {
			res.Capacity = cfg.UPI.RawBytesPerSecPerDir * inj.UPIScale(key[0], key[1], at)
		}
	}

	// Refresh dynamic resources.
	for key, n := range pop.coldCount {
		dynamic(rm, rm.coldRes, key, func() string {
			return "cold-r" + strconv.Itoa(key.Region) + "-s" + strconv.Itoa(key.Socket)
		}).Capacity = cfg.UPI.ColdCap(n)
	}
	for dir, n := range pop.unpinnedCount {
		dynamic(rm, rm.unpinned, dir, func() string { return "unpinned-" + dir.String() }).Capacity =
			cfg.CPU.UnpinnedCap(dir, n)
	}

	for i, s := range rm.streams {
		f := rm.flows[i]
		if !rm.fctx[i].active {
			f.Costs = f.Costs[:0] // keep the backing array for the next run
			continue
		}
		ts := rm.m.threadSocket(s)
		far := s.Policy != cpu.PinNone && s.Region.Class != access.SSD && ts != s.Region.Socket
		contended := pop.contended[s.Region.id]

		// Demand (MaxRate).
		htFlag := s.Placement.HTShared && (s.Dir == access.Write || cfg.PrefetcherEnabled)
		ctx := cpu.StreamCtx{
			Device:          s.Region.Class,
			Dir:             s.Dir,
			Pattern:         s.Pattern,
			AccessSize:      s.AccessSize,
			Far:             far,
			HTPolluted:      htFlag,
			PrefetcherOn:    cfg.PrefetcherEnabled,
			Dependent:       s.Dependent,
			ExtraCPUPerByte: s.CPUPerByte,
		}
		demand := cfg.CPU.IssueRate(ctx)
		// Memory Mode: the socket's DRAM caches the region; per-thread speed
		// blends DRAM-hit and PMEM-miss service (Section 2.1).
		mmHit := -1.0
		if s.Region.Class == access.PMEM && s.Region.Mode == MemoryMode {
			mmHit = math.Min(1, float64(rm.m.MemoryModeCacheBytes())/float64(s.Region.Size))
			dramCtx := ctx
			dramCtx.Device = access.DRAM
			dDRAM := cfg.CPU.IssueRate(dramCtx)
			if demand > 0 && dDRAM > 0 {
				demand = 1 / (mmHit/dDRAM + (1-mmHit)/demand)
			}
		}
		groupN := pop.policyGroup[policyKey{s.Policy, ts}]
		oversubWrites := false
		if s.Policy == cpu.PinNUMA && groupN > topo.PhysCoresPerSocket() {
			demand *= cfg.CPU.NUMAPinOversubscribedFactor
			oversubWrites = true
		}
		if avail := rm.coreBudget(s.Policy); groupN > avail {
			demand *= float64(avail) / float64(groupN)
		}
		if !s.Region.Faulted() {
			demand *= 1 - cfg.FsdaxColdPenalty
		}
		f.MaxRate = demand

		// Weight.
		w := s.Weight
		if w <= 0 {
			w = 1
			if s.Dir == access.Write {
				if s.Region.Class == access.PMEM {
					w = cfg.PMEM.WriteFlowWeight
				} else if s.Region.Class == access.DRAM {
					w = cfg.DRAM.WriteFlowWeight
				}
			}
		}
		f.Weight = w

		// Cost vector. Every flow first pays for its thread's time: flows
		// sharing a logical core (a query thread that both scans and probes)
		// split the core's cycles instead of running in parallel. The
		// vector's backing array is reused across recomputations.
		costs := f.Costs[:0]
		if demand > 0 {
			tr := rm.threadOf[i]
			if tr == nil {
				tr = dynamic(rm, rm.threadRes, threadKey{s.Policy, s.Placement.Core}, func() string {
					return "thread-" + s.Policy.String() + "-c" + strconv.Itoa(int(s.Placement.Core))
				})
				tr.Capacity = 1
				rm.threadOf[i] = tr
			}
			costs = append(costs, fluid.Cost{Resource: tr, PerByte: 1 / demand})
		}
		fc := flowCtx{active: true, far: far, touchesRegion: s.Region, mmHit: mmHit}

		switch s.Region.Class {
		case access.PMEM:
			// During a channel-offline window the stream only sees the
			// surviving stripe set: parallelism and concentration are both
			// computed against the reduced layout, while the media resource's
			// capacity above already lost the offline channels' share.
			lay := rm.m.layout
			dEff := d
			if inj := rm.m.inj; inj != nil {
				if off := inj.ChannelsOffline(int(s.Region.Socket), rm.clock0+rm.now); off > 0 {
					dEff = d - float64(off)
					lay = rm.m.degradedLayout(int(dEff))
				}
			}
			nd := rm.dimmParallelism(s, pop, lay)
			concentration := dEff / math.Max(nd, 1e-9)
			fc.engaged = int(math.Round(nd))
			media := rm.pmemMedia[s.Region.Socket]
			readCap := cfg.PMEM.SocketReadBytesPerSec(topo.ChannelsPerSocket())
			writeCap := cfg.PMEM.SocketWriteBytesPerSec(topo.ChannelsPerSocket())
			if s.Dir == access.Read {
				ra := cfg.PMEM.ReadAmplification(s.AccessSize, s.Pattern)
				fc.readBaseRA = ra
				if htFlag && cfg.PrefetcherEnabled {
					ra *= cfg.CPU.HTMediaAmplification(s.AccessSize, s.Pattern)
				}
				if s.Pattern.Sequential() && cfg.PrefetcherEnabled {
					fc.prefetched = true
					fc.prefetchEff = cpu.PrefetchEfficiency(s.Pattern, s.AccessSize)
				}
				if s.Pattern == access.SeqGrouped && cfg.PrefetcherEnabled {
					eff := cpu.PrefetchEfficiency(s.Pattern, s.AccessSize)
					ra *= 1 + (1-eff)*cfg.PrefetchWasteFactor
				}
				// ra so far is real media traffic (granularity, HT-evicted and
				// mispredicted prefetches); the random penalty below models
				// lost bank parallelism, not extra bytes.
				fc.readRA = ra
				if s.Pattern == access.Random {
					ra *= cfg.PMEM.RandomMediaPenalty
				}
				cost := ra * concentration / readCap
				if contended {
					cost /= cfg.PMEM.ContendedEfficiency
				}
				cost *= 1 + cfg.PMEM.MixedReadInflation*rm.uW[s.Region.Socket]
				if !s.Region.Faulted() {
					cost /= 1 - cfg.FsdaxColdPenalty
				}
				if mmHit >= 0 {
					// Only misses reach the PMEM media, but every byte moves
					// through the DRAM cache (hits are served from it,
					// misses fill it), so DRAM bandwidth is charged in full.
					cost *= 1 - mmHit
					dramCost := cfg.DRAM.MediaPenalty(s.Pattern) / cfg.DRAM.SocketReadBytesPerSec
					costs = append(costs,
						fluid.Cost{Resource: rm.dramMedia[s.Region.Socket], PerByte: dramCost},
						fluid.Cost{Resource: rm.dramSystem, PerByte: 1})
				}
				costs = append(costs, fluid.Cost{Resource: media, PerByte: cost})
				if far && contended {
					// Directory updates written to PMEM media (Section 3.5).
					dirCost := cfg.PMEM.DirectoryWriteFraction / writeCap
					costs = append(costs, fluid.Cost{Resource: media, PerByte: dirCost})
					fc.writeUtilPerByte += dirCost
					fc.dirWritePerB = cfg.PMEM.DirectoryWriteFraction
				}
			} else {
				streams := pop.pmemWriteStreams[s.Region.Socket]
				pmem := cfg.PMEM
				if inj := rm.m.inj; inj != nil {
					// A degraded XPBuffer has fewer write-combining lines, so
					// the same stream population runs at higher pressure.
					pmem = pmem.DerateBuffer(inj.BufferScale(int(s.Region.Socket), rm.clock0+rm.now))
				}
				wa := pmem.WriteAmplification(s.AccessSize, s.Pattern, streams)
				if oversubWrites {
					wa *= cfg.CPU.NUMAPinWriteWAFactor
				}
				if far {
					wa *= cfg.PMEM.FarWriteWA
				}
				fc.writeWA = wa // media bytes actually written, for wear
				if s.Pattern == access.Random {
					wa *= cfg.PMEM.RandomMediaPenalty
				}
				cost := wa * concentration / writeCap
				if !s.Region.Faulted() {
					cost /= 1 - cfg.FsdaxColdPenalty
				}
				if mmHit >= 0 {
					// Write-back caching: every store lands in DRAM; dirty
					// evictions (the miss fraction) are written to PMEM.
					cost *= 1 - mmHit
					dramCost := cfg.DRAM.MediaPenalty(s.Pattern) / cfg.DRAM.SocketWriteBytesPerSec
					costs = append(costs,
						fluid.Cost{Resource: rm.dramMedia[s.Region.Socket], PerByte: dramCost},
						fluid.Cost{Resource: rm.dramSystem, PerByte: 1})
				}
				costs = append(costs, fluid.Cost{Resource: media, PerByte: cost})
				fc.writeUtilPerByte += cost
			}
		case access.DRAM:
			media := rm.dramMedia[s.Region.Socket]
			fraction := cfg.DRAM.ChannelFraction(s.Region.Size, topo.DRAMNodeBytes())
			if s.Pattern.Sequential() {
				fraction = 1 // sequential streams engage the full interleave
			}
			penalty := cfg.DRAM.MediaPenalty(s.Pattern)
			if s.Dir == access.Read {
				cost := penalty / (cfg.DRAM.SocketReadBytesPerSec * fraction)
				if contended {
					cost /= cfg.DRAM.ContendedEfficiency
				}
				cost *= 1 + cfg.DRAM.MixedReadInflation*rm.uWDram[s.Region.Socket]
				costs = append(costs, fluid.Cost{Resource: media, PerByte: cost})
				if far && contended {
					dirCost := cfg.DRAM.DirectoryWriteFraction / cfg.DRAM.SocketWriteBytesPerSec
					costs = append(costs, fluid.Cost{Resource: media, PerByte: dirCost})
					fc.writeUtilPerByte += dirCost
				}
			} else {
				cost := penalty / (cfg.DRAM.SocketWriteBytesPerSec * fraction)
				costs = append(costs, fluid.Cost{Resource: media, PerByte: cost})
				fc.writeUtilPerByte += cost
			}
			costs = append(costs, fluid.Cost{Resource: rm.dramSystem, PerByte: 1})
		case access.SSD:
			cost := cfg.SSD.Amplification(s.AccessSize) / cfg.SSD.Rate(s.Dir, s.Pattern)
			costs = append(costs, fluid.Cost{Resource: rm.ssdRes, PerByte: cost})
		}

		if far {
			var dataDir, reqDir [2]int
			if s.Dir == access.Read {
				dataDir = [2]int{int(s.Region.Socket), int(ts)}
				reqDir = [2]int{int(ts), int(s.Region.Socket)}
			} else {
				dataDir = [2]int{int(ts), int(s.Region.Socket)}
				reqDir = [2]int{int(s.Region.Socket), int(ts)}
			}
			costs = append(costs,
				fluid.Cost{Resource: rm.upiDirs[dataDir], PerByte: cfg.UPI.DataCostFactor},
				fluid.Cost{Resource: rm.upiDirs[reqDir], PerByte: cfg.UPI.RequestCostFactor},
			)
			if s.Region.Class == access.PMEM && s.Dir == access.Read {
				key := upi.Key{Region: s.Region.id, Socket: int(ts)}
				if !rm.m.warmth.IsWarm(key) {
					fc.cold = true
					fc.coldKey = key
					costs = append(costs, fluid.Cost{Resource: rm.coldRes[key].r, PerByte: 1})
				}
			}
		}
		if s.Policy == cpu.PinNone {
			costs = append(costs, fluid.Cost{Resource: rm.unpinned[s.Dir].r, PerByte: 1})
		}

		f.Costs = costs
		rm.fctx[i] = fc
	}
}

// coreBudget returns how many logical cores the policy's thread group can
// occupy before time-sharing sets in.
func (rm *runModel) coreBudget(policy cpu.PinPolicy) int {
	if policy == cpu.PinNone {
		return rm.m.topo.LogicalCores()
	}
	return rm.m.topo.LogicalCoresPerSocket()
}

// Resources implements fluid.Model. The returned slice is cached and
// rebuilt only when a dynamic resource (cold-access bridge, unpinned
// scheduler slot, thread core) appears; its order is stable and append-only,
// which keeps rm.peaks index-aligned across rebuilds.
func (rm *runModel) Resources() []*fluid.Resource {
	if !rm.resValid {
		rm.resCache = rm.resCache[:0]
		rm.resCache = append(rm.resCache, rm.pmemMedia...)
		rm.resCache = append(rm.resCache, rm.dramMedia...)
		rm.resCache = append(rm.resCache, rm.dramSystem, rm.ssdRes)
		rm.resCache = append(rm.resCache, rm.upiList...)
		rm.resCache = append(rm.resCache, rm.dynList...)
		for len(rm.peaks) < len(rm.resCache) {
			rm.peaks = append(rm.peaks, 0)
		}
		rm.resValid = true
	}
	return rm.resCache
}

// Horizon implements fluid.Model: step boundaries at warm-up completion and
// fsdax fault-in completion, so the cost model is piecewise accurate.
func (rm *runModel) Horizon(now float64, flows []*fluid.Flow) float64 {
	h := math.Inf(1)
	// Warm-up boundaries. Rates accumulate per key in flow order (the same
	// order the old map-based version added them), into small reused slices:
	// the handful of cold keys per run never justifies a per-step map.
	rm.hzColdKeys = rm.hzColdKeys[:0]
	rm.hzColdRates = rm.hzColdRates[:0]
	for i, f := range rm.flows {
		if rm.fctx[i].active && rm.fctx[i].cold {
			key := rm.fctx[i].coldKey
			at := -1
			for j, k := range rm.hzColdKeys {
				if k == key {
					at = j
					break
				}
			}
			if at < 0 {
				rm.hzColdKeys = append(rm.hzColdKeys, key)
				rm.hzColdRates = append(rm.hzColdRates, 0)
				at = len(rm.hzColdKeys) - 1
			}
			rm.hzColdRates[at] += f.Rate
		}
	}
	for j, key := range rm.hzColdKeys {
		rate := rm.hzColdRates[j]
		if rate <= 0 {
			continue
		}
		region := rm.regionByID(key.Region)
		if region == nil {
			continue
		}
		rem := rm.m.warmth.RemainingCold(key, region.Size)
		if t := rem / rate; t < h {
			h = t
		}
	}
	// fsdax fault-in boundaries.
	rm.hzRegions = rm.hzRegions[:0]
	rm.hzRegionRates = rm.hzRegionRates[:0]
	for i, f := range rm.flows {
		fc := rm.fctx[i]
		if fc.active && fc.touchesRegion != nil && !fc.touchesRegion.Faulted() {
			at := -1
			for j, r := range rm.hzRegions {
				if r == fc.touchesRegion {
					at = j
					break
				}
			}
			if at < 0 {
				rm.hzRegions = append(rm.hzRegions, fc.touchesRegion)
				rm.hzRegionRates = append(rm.hzRegionRates, 0)
				at = len(rm.hzRegions) - 1
			}
			rm.hzRegionRates[at] += f.Rate
		}
	}
	for j, region := range rm.hzRegions {
		rate := rm.hzRegionRates[j]
		if rate <= 0 {
			continue
		}
		rem := float64(region.Size) - region.faultedBytes
		if t := rem / rate; t < h {
			h = t
		}
	}
	// Fault-plan boundaries: the solver must not step across a capacity
	// change (and an all-zero-rate outage must pause exactly until one).
	if inj := rm.m.inj; inj != nil {
		at := rm.clock0 + now
		if nb := inj.NextBoundary(at); !math.IsInf(nb, 1) {
			if t := nb - at; t > 0 && t < h {
				h = t
			}
		}
	}
	return h
}

// Advance implements fluid.Model: accumulate warmth, fault-in, wear, and
// peak-utilization diagnostics.
func (rm *runModel) Advance(now, dt float64, flows []*fluid.Flow) {
	for i, r := range rm.Resources() {
		if u := r.Utilization(); u > rm.peaks[i] {
			rm.peaks[i] = u
		}
	}
	rm.traceStepStart(now)
	for i, f := range rm.flows {
		fc := rm.fctx[i]
		if !fc.active || f.Rate <= 0 {
			continue
		}
		moved := f.Rate * dt
		if fc.cold {
			wasWarm := rm.m.warmth.IsWarm(fc.coldKey)
			rm.m.warmth.Record(fc.coldKey, moved, fc.touchesRegion.Size)
			if !wasWarm && rm.m.warmth.IsWarm(fc.coldKey) {
				rm.m.rec.upiWarmups.Inc()
				rm.traceWarmFlip(fc.coldKey, now+dt)
				rm.dirty = true // warm directory: the cold bridge cost disappears
			}
		}
		if fc.touchesRegion != nil && !fc.touchesRegion.Faulted() {
			before := fc.touchesRegion.faultedBytes
			fc.touchesRegion.faultedBytes = math.Min(
				before+moved, float64(fc.touchesRegion.Size))
			rm.m.rec.faultInB.Add(fc.touchesRegion.faultedBytes - before)
			if fc.touchesRegion.Faulted() {
				rm.dirty = true // fully faulted in: the fsdax penalty lifts
			}
		}
		if fc.writeWA > 0 && fc.touchesRegion.Class == access.PMEM {
			rm.m.wear[fc.touchesRegion.Socket].Record(moved * fc.writeWA)
		}
		rm.recordTraffic(rm.streams[i], fc, moved)
		rm.traceAccumulate(rm.streams[i], fc, moved)
	}
	rm.traceStepEnd(now, dt)
	if rm.m.inj != nil {
		traceOff := 0.0
		if rm.tr != nil {
			traceOff = rm.tr.base - rm.clock0
		}
		rm.m.faultTick(rm.clock0+now, rm.clock0+now+dt, traceOff)
	}
}

// recordTraffic accounts one flow's dt-step traffic in the metrics registry:
// app vs media bytes per device and socket, per-channel distribution,
// XPBuffer line flushes, prefetch waste, and UPI link bytes.
func (rm *runModel) recordTraffic(s *Stream, fc flowCtx, moved float64) {
	rec := rm.m.rec
	gran := float64(rm.m.cfg.PMEM.Granularity)
	switch s.Region.Class {
	case access.PMEM:
		sock := s.Region.Socket
		// In Memory Mode only the DRAM-cache miss share reaches the media;
		// every byte still moves through the socket's DRAM.
		missShare := 1.0
		if fc.mmHit >= 0 {
			missShare = 1 - fc.mmHit
		}
		if s.Dir == access.Read {
			media := moved * fc.readRA * missShare
			rec.pmemReadApp[sock].Add(moved)
			rec.pmemReadMedia[sock].Add(media)
			rec.rbufApp[sock].Add(moved * missShare)
			rec.rbufMedia[sock].Add(media)
			rm.m.recordChannelMedia(sock, access.Read, fc.engaged, media)
			if fc.prefetched {
				rec.pfBytes.Add(moved)
				rec.pfUseful.Add(moved * fc.prefetchEff)
				rec.pfWasted.Add(moved * (fc.readRA - fc.readBaseRA) * missShare)
			}
			if fc.dirWritePerB > 0 {
				rec.dirWrites[sock].Add(moved * fc.dirWritePerB)
			}
		} else {
			media := moved * fc.writeWA * missShare
			rec.pmemWriteApp[sock].Add(moved)
			rec.pmemWriteMedia[sock].Add(media)
			rec.xpbLineWrites[sock].Add(moved * missShare / gran)
			rec.xpbLineFlushes[sock].Add(media / gran)
			rm.m.recordChannelMedia(sock, access.Write, fc.engaged, media)
		}
		if fc.mmHit >= 0 {
			if s.Dir == access.Read {
				rec.dramRead[sock].Add(moved)
			} else {
				rec.dramWrite[sock].Add(moved)
			}
		}
	case access.DRAM:
		if s.Dir == access.Read {
			rec.dramRead[s.Region.Socket].Add(moved)
		} else {
			rec.dramWrite[s.Region.Socket].Add(moved)
		}
	case access.SSD:
		rec.ssdBytes.Add(moved)
	}
	if fc.far {
		ts := int(rm.m.threadSocket(s))
		ds := int(s.Region.Socket)
		dataFrom, dataTo := ds, ts
		if s.Dir == access.Write {
			dataFrom, dataTo = ts, ds
		}
		rec.upiData[dataFrom][dataTo].Add(moved * rm.m.cfg.UPI.DataCostFactor)
		rec.upiReq[dataTo][dataFrom].Add(moved * rm.m.cfg.UPI.RequestCostFactor)
		rec.upiCross.Add(moved / float64(s.AccessSize))
		if fc.cold {
			rec.upiColdB.Add(moved)
		}
	}
}

// peakFor returns the run-peak utilization recorded for the resource.
func (rm *runModel) peakFor(target *fluid.Resource) float64 {
	for i, r := range rm.resCache {
		if r == target {
			return rm.peaks[i]
		}
	}
	return 0
}

// peakUtilMap materializes the bottleneck diagnostic for RunResult; like the
// old per-step map it only carries resources that saw load.
func (rm *runModel) peakUtilMap() map[string]float64 {
	out := make(map[string]float64, len(rm.resCache))
	for i, r := range rm.resCache {
		if rm.peaks[i] > 0 {
			out[r.Name] = rm.peaks[i]
		}
	}
	return out
}

func (rm *runModel) regionByID(id int) *Region {
	for _, r := range rm.m.regions {
		if r.id == id {
			return r
		}
	}
	return nil
}
