// Package aware implements the paper's handcrafted, PMEM-aware SSB engine
// (Section 6.2). It applies the evaluation's best practices:
//
//   - row-format fact table with 128 B-aligned tuples, striped across the
//     PMEM of both sockets; threads scan only their near partition in
//     individual sequential chunks (Insights #1, #4, #5);
//   - dimension tables and their join indexes replicated on every socket so
//     probes never cross the UPI (Section 6.2);
//   - hash joins through the PMEM-optimized Dash index (256 B buckets);
//   - threads explicitly pinned to physical cores (Insight #3/#8);
//   - date handled by predicate pushdown and an in-cache lookup table
//     instead of a join (the date dimension has at most 2557 rows).
//
// Every query really executes over generated data, once, in the fact pass
// both engines share (engine.FactPass) — results are exact and compared
// against the reference executor — while this engine's memory traffic is
// charged to the simulated machine, which produces the virtual runtimes of
// Figure 14b and Table 1.
package aware

import (
	"encoding/binary"
	"fmt"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/dash"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/ssb"
	"repro/internal/topology"
)

// Cost model constants: per-operation CPU costs of the handcrafted C++
// implementation the engine stands in for. Calibrated against Table 1
// (Q2.1: 306.7 s on PMEM / 221.2 s on DRAM with one thread at sf 100).
const (
	// ScanCPUPerRow covers tuple decode, fact-local predicates, and the
	// in-cache date lookup.
	ScanCPUPerRow = 15e-9
	// ProbeCPU covers hashing, fingerprint comparison, and key check of one
	// Dash probe.
	ProbeCPU = 300e-9
	// AggCPUPerRow covers the per-qualifying-row aggregation update.
	AggCPUPerRow = 40e-9
	// LLCBytes is the effective per-socket last-level cache available to
	// probe working sets (Xeon Gold 5220S: 24.75 MB L3 + L2s).
	LLCBytes = 25 << 20
	// MaxCacheHit bounds how much of a small index stays cache-resident
	// across a scan.
	MaxCacheHit = 0.9
)

// Options configure an engine instance; zero values get defaults.
type Options struct {
	Device  access.DeviceClass // PMEM (default) or DRAM
	Threads int                // default 36 (all physical cores)
	Sockets int                // 1 or 2 (default 2)
	Pinning cpu.PinPolicy      // default PinCores
	// NUMAAware keeps every scan and probe on the thread's own socket. The
	// zero value splits each stream 50/50 between the near and far socket,
	// Table 1's "2-Socket" row.
	NUMAAware bool
	// TargetSF scales the traffic statistics to this scale factor (the
	// paper's sf 100); 0 means the data's own scale factor.
	TargetSF float64
	// SSDScan stores the fact table on the NVMe SSD while indexes and
	// intermediates stay in DRAM — the "traditional OLAP system" baseline
	// of Section 6.2.
	SSDScan bool
	// HybridDims keeps the fact table on PMEM but places the dimension
	// tables and Dash indexes in DRAM — the hybrid PMEM-DRAM design the
	// paper names as future work (Sections 5.2, 9). Random-access-heavy
	// probes hit DRAM while the sequential scan exploits PMEM capacity.
	HybridDims bool
}

// Engine holds the loaded database and its placement.
type Engine struct {
	m    *machine.Machine
	data *ssb.Data
	opt  Options

	factScale float64 // target fact rows / data fact rows
	dimScale  map[string]float64

	// shares, when non-nil, is the normalized fact-scan split across the
	// active sockets (fault re-planning); nil means an equal split.
	shares []float64

	factRegion []*machine.Region
	dimRegion  []*machine.Region
	staging    []*machine.Region // concurrent-ingest target (RunWithIngest)

	sim    *engine.Sim
	labels engine.Memo[labelKey, string]
}

// labelKey identifies one memoized stream label.
type labelKey struct {
	kind    byte   // 's' scan, 'p' probe, 'b' build-scan, 'i' build-index
	name    string // dimension name ("" for scan)
	s, t    int    // socket, thread (-1 when unused)
	variant byte   // 0 base, 'n' "/near", 'f' "/far"
}

// label renders the stream label for a key.
func label(k labelKey) string {
	var v string
	switch k.kind {
	case 's':
		v = fmt.Sprintf("scan/s%d/t%02d", k.s, k.t)
	case 'p':
		v = fmt.Sprintf("probe-%s/s%d/t%02d", k.name, k.s, k.t)
	case 'b':
		v = fmt.Sprintf("build-scan/%s/s%d", k.name, k.s)
	case 'i':
		v = fmt.Sprintf("build-index/%s/s%d", k.name, k.s)
	}
	switch k.variant {
	case 'n':
		v += "/near"
	case 'f':
		v += "/far"
	}
	return v
}

// QueryRun is one executed query.
type QueryRun = engine.QueryRun[Stats]

// Phase is one timed stage of a query.
type Phase = engine.Phase

// Stats summarizes the traffic behind a run (already scaled to TargetSF).
type Stats struct {
	TuplesScanned  int64
	BytesScanned   int64
	Probes         int64
	ProbeBytes     int64 // media-visible probe traffic after cache filtering
	QualifyingRows int64
	Groups         int
}

// New loads the data set into an engine: encodes the fact table, stripes it
// across the active sockets, and allocates the simulated regions.
func New(m *machine.Machine, data *ssb.Data, opt Options) (*Engine, error) {
	if opt.Threads == 0 {
		opt.Threads = 36
	}
	if opt.Sockets == 0 {
		opt.Sockets = 2
	}
	if opt.Sockets < 1 || opt.Sockets > m.Topology().Sockets() {
		return nil, fmt.Errorf("aware: sockets = %d out of range", opt.Sockets)
	}
	if opt.Threads < 1 {
		return nil, fmt.Errorf("aware: threads = %d out of range", opt.Threads)
	}
	if opt.TargetSF == 0 {
		opt.TargetSF = data.SF
	}
	e := &Engine{m: m, data: data, opt: opt, sim: engine.NewSim(m),
		labels:    engine.NewMemo(label),
		factScale: engine.Scale(data, "lineorder", opt.TargetSF),
		dimScale:  engine.DimScales(data, opt.TargetSF),
	}

	// Allocate the simulated regions at target scale.
	factBytesTarget := int64(ssb.RowsAt("lineorder", opt.TargetSF)) * ssb.TupleBytes
	perSocket := factBytesTarget / int64(opt.Sockets)
	dimBytes := e.dimFootprint()
	dimDevice := opt.Device
	if opt.SSDScan || opt.HybridDims {
		dimDevice = access.DRAM
	}
	var ssd *machine.Region
	if opt.SSDScan {
		var err error
		if ssd, err = m.AllocSSD("ssb/fact", factBytesTarget); err != nil {
			return nil, err
		}
	}
	for s := 0; s < opt.Sockets; s++ {
		sock := topology.SocketID(s)
		fr := ssd
		if fr == nil {
			var err error
			if fr, err = engine.AllocTable(m, fmt.Sprintf("ssb/fact-%d", s), sock, perSocket, opt.Device); err != nil {
				return nil, err
			}
		}
		dr, err := engine.AllocTable(m, fmt.Sprintf("ssb/dims-%d", s), sock, dimBytes, dimDevice)
		if err != nil {
			return nil, err
		}
		engine.Settle(m, fr, dr)
		e.factRegion = append(e.factRegion, fr)
		e.dimRegion = append(e.dimRegion, dr)
	}
	return e, nil
}

func (e *Engine) dimFootprint() int64 {
	// Replicated dimensions plus generous index headroom, at target scale.
	var rows int64
	for _, table := range []string{"customer", "supplier", "part"} {
		rows += int64(ssb.RowsAt(table, e.opt.TargetSF))
	}
	return max(rows*256, 1<<20) // ~200 B row + index share
}

// EncodedFact returns the fact table as the engine stores it: 128 B-encoded
// tuples striped across the active sockets ("the fact table is shuffled and
// striped across PMEM on both sockets"), one contiguous partition per
// socket. The encoding is a pure function of the data set and every stripe
// layout is a contiguous row range, so all layouts lazily slice one shared
// encode. Queries execute over the decoded structs and only charge the
// encoded footprint's traffic, so the bytes materialize on first call, not
// at load. Callers must treat the returned buffers as read-only.
func (e *Engine) EncodedFact() [][]byte {
	data := e.data
	encoded := data.Memo("aware/fact/encoded", func() any {
		buf := make([]byte, len(data.Lineorder)*ssb.TupleBytes)
		for i := range data.Lineorder {
			encodeTuple(buf[i*ssb.TupleBytes:], &data.Lineorder[i])
		}
		return buf
	}).([]byte)
	return data.Memo(fmt.Sprintf("aware/fact/%d", e.opt.Sockets), func() any {
		fact := make([][]byte, e.opt.Sockets)
		rows := len(data.Lineorder)
		per := (rows + e.opt.Sockets - 1) / e.opt.Sockets
		for s := 0; s < e.opt.Sockets; s++ {
			lo := s * per
			hi := lo + per
			if hi > rows {
				hi = rows
			}
			fact[s] = encoded[lo*ssb.TupleBytes : hi*ssb.TupleBytes : hi*ssb.TupleBytes]
		}
		return fact
	}).([][]byte)
}

// Tuple encoding offsets (fixed 128 B row, Section 6.2).
func encodeTuple(dst []byte, lo *ssb.Lineorder) {
	binary.LittleEndian.PutUint64(dst[0:], lo.OrderKey)
	binary.LittleEndian.PutUint32(dst[8:], lo.CustKey)
	binary.LittleEndian.PutUint32(dst[12:], lo.PartKey)
	binary.LittleEndian.PutUint32(dst[16:], lo.SuppKey)
	binary.LittleEndian.PutUint32(dst[20:], lo.OrderDate)
	binary.LittleEndian.PutUint32(dst[24:], lo.ExtendedPrice)
	binary.LittleEndian.PutUint32(dst[28:], lo.OrdTotalPrice)
	binary.LittleEndian.PutUint32(dst[32:], lo.Revenue)
	binary.LittleEndian.PutUint32(dst[36:], lo.SupplyCost)
	binary.LittleEndian.PutUint32(dst[40:], lo.CommitDate)
	dst[44] = lo.LineNumber
	dst[45] = lo.OrdPriority
	dst[46] = lo.ShipPriority
	dst[47] = lo.Quantity
	dst[48] = lo.Discount
	dst[49] = lo.Tax
	dst[50] = lo.ShipMode
}

type decoded struct {
	custKey, partKey, suppKey, orderDate uint32
	extendedPrice, revenue, supplyCost   uint32
	quantity, discount                   uint8
}

func decodeTuple(src []byte) decoded {
	return decoded{
		custKey:       binary.LittleEndian.Uint32(src[8:]),
		partKey:       binary.LittleEndian.Uint32(src[12:]),
		suppKey:       binary.LittleEndian.Uint32(src[16:]),
		orderDate:     binary.LittleEndian.Uint32(src[20:]),
		extendedPrice: binary.LittleEndian.Uint32(src[24:]),
		revenue:       binary.LittleEndian.Uint32(src[32:]),
		supplyCost:    binary.LittleEndian.Uint32(src[36:]),
		quantity:      src[47],
		discount:      src[48],
	}
}

// dimIndex is one join index: the Dash index itself lives only while the
// query's execution is derived (and in Plan); the traffic model needs just
// its size and counters.
type dimIndex struct {
	name        string
	ix          *dash.Index // nil once the execution is memoized
	entries     int
	buildStats  dash.Stats
	selectivity float64
	// factStats holds the counters the fact-phase probes record. Memoized
	// executions are shared across engines, so the traffic model reads this
	// frozen copy rather than live counters.
	factStats dash.Stats
}

// factExec is one query's executed fact pipeline: the indexes (in build
// order, with fact-phase stats), the selectivity-sorted probe order, and the
// exact result. It is a pure function of (data, query): index contents
// depend only on the dimension filters and the probe counts on the query's
// fact pass. Engines therefore share one execution per query via Data.Memo,
// no matter which device/thread/socket configuration they simulate.
type factExec struct {
	indexes    []*dimIndex
	probeOrder []*dimIndex
	qualifying int64
	result     ssb.Result
}

// factExecFor builds (or recalls) the executed fact pipeline for q.
func (e *Engine) factExecFor(q ssb.Query) *factExec {
	return e.data.Memo("aware/exec/"+q.ID, func() any {
		return e.execute(q, engine.FactPassFor(e.data, q))
	}).(*factExec)
}

// execute derives q's fact pipeline from its fact pass: it builds the
// filtered Dash indexes and charges each the bucket reads of its fact-phase
// probes. A Get on a frozen index reads a number of buckets that is a pure
// function of the key, so one Get per probed key, weighted by how often the
// pass saw that key probed, gives exactly the counters per-row probing
// records.
func (e *Engine) execute(q ssb.Query, p *engine.FactPass) *factExec {
	ex := &factExec{indexes: e.buildIndexes(q), qualifying: p.Hist[engine.AllBits], result: p.Result}
	for i, ix := range ex.indexes {
		var reads int64
		for k, n := range p.Joined[i].Probes {
			if n != 0 {
				before := ix.ix.Stats().BucketReads
				ix.ix.Get(uint64(k))
				reads += n * (ix.ix.Stats().BucketReads - before)
			}
		}
		ix.factStats = dash.Stats{BucketReads: reads}
		ix.ix = nil
	}
	for _, i := range p.Order {
		ex.probeOrder = append(ex.probeOrder, ex.indexes[i])
	}
	return ex
}

// Run executes one query and returns its exact result plus simulated timing.
func (e *Engine) Run(q ssb.Query) (QueryRun, error) {
	return e.runWith(q, nil)
}

// runWith executes the query with optional extra concurrent streams charged
// alongside the fact phase (the Section 5.1 "queries while data is
// ingested" scenario).
func (e *Engine) runWith(q ssb.Query, extra []*machine.Stream) (QueryRun, error) {
	exec := e.factExecFor(q)
	run := engine.NewRun[Stats](q.ID, exec.result, 3)

	// --- Build phase: Dash indexes over the filtered dimensions. ---
	buildSec, err := e.simulateBuild(exec.indexes)
	if err != nil {
		return run, err
	}
	run.AddPhase("build", buildSec)

	// --- Fact phase: scan, probe, aggregate (executed once per query by the
	// shared fact pass).
	factSec, stats, err := e.simulateFactPhase(q, exec.probeOrder, exec.qualifying, len(run.Result), extra)
	if err != nil {
		return run, err
	}
	run.AddPhase("scan+probe+aggregate", factSec)
	run.Stats = stats

	// --- Merge phase: combine the per-thread partial aggregates. ---
	run.AddPhase("merge", e.simulateMerge(len(run.Result)))
	return run, nil
}

// buildIndexes constructs the filtered Dash indexes the query needs.
func (e *Engine) buildIndexes(q ssb.Query) []*dimIndex {
	var out []*dimIndex
	for _, dm := range engine.JoinedDims(e.data, q) {
		depth := uint8(4)
		if dm.Name == "supplier" {
			depth = 2 // the smallest dimension
		}
		ix := dash.MustNew(depth)
		n := 0
		for i := 0; i < dm.Rows; i++ {
			if dm.Keep(i) {
				if err := ix.Insert(uint64(dm.Key(i)), uint64(i)); err != nil {
					panic(err) // arena-backed inserts only fail on depth overflow
				}
				n++
			}
		}
		out = append(out, &dimIndex{name: dm.Name, ix: ix, entries: n,
			buildStats: ix.Stats(), selectivity: float64(n) / float64(dm.Rows)})
	}
	return out
}

// threadsOn is how many of the engine's threads run on active socket s.
func (e *Engine) threadsOn(s int) int {
	n := e.opt.Threads / e.opt.Sockets
	if s < e.opt.Threads%e.opt.Sockets {
		n++
	}
	return n
}
