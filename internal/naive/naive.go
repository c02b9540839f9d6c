// Package naive implements a Hyrise-like, PMEM-*unaware* columnar SSB engine
// (Section 6.1). It deliberately keeps the design choices that make an
// in-memory database slow on Optane when PMEM is treated as "slow DRAM":
//
//   - chunked columnar storage on a single socket, scanned column-wise;
//   - joins through a node-based chained hash map (std::unordered_map
//     style): every probe is a dependent pointer chase of small 64 B
//     accesses — the access pattern the paper identifies as PMEM's weakest
//     ("Hyrise's PMEM-unaware hash index implementation performs worse in
//     PMEM than in DRAM");
//   - reference-segment indirection: post-join column accesses gather
//     through position lists, turning sequential columns into random 64 B
//     reads with 4x media amplification on PMEM;
//   - intermediates materialized to the same memory between operators.
//
// Like the aware engine, it really executes the queries (results are exact)
// and charges its traffic to the simulated machine; the timing gap between
// the two engines on PMEM is Figure 14's headline contrast.
package naive

import (
	"fmt"
	"sort"

	"repro/internal/access"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/ssb"
)

// Cost model constants for the stand-in C++ engine.
const (
	// ScanCPUPerValue covers one vectorized column-scan value.
	ScanCPUPerValue = 4e-9
	// ProbeCPU covers hashing plus chain traversal of one map probe.
	ProbeCPU = 80e-9
	// ChasesPerProbe is how many dependent cache-line accesses one chained
	// hash map probe makes (bucket head, node, out-of-line value copy).
	ChasesPerProbe = 3
	// ChaseBytes is the access size of one chase (a cache line).
	ChaseBytes = 64
	// MapBytesPerEntry is the chained map's footprint per record (node +
	// bucket array share).
	MapBytesPerEntry = 48
	// MaterializeBytesPerRow is the per-row footprint of an intermediate
	// (position + carried value).
	MaterializeBytesPerRow = 16
	// MaterializeCPUPerRow covers emitting one intermediate row.
	MaterializeCPUPerRow = 10e-9
	// AggCPUPerRow covers one hash-aggregate update.
	AggCPUPerRow = 60e-9
	// LLCBytes and MaxCacheHit parallel the aware engine's cache model, but
	// a node-based map caches worse (allocator-scattered nodes).
	LLCBytes    = 25 << 20
	MaxCacheHit = 0.6
)

// Options configure the engine.
type Options struct {
	Device  access.DeviceClass // PMEM (default) or DRAM
	Threads int                // default 36 (one socket's logical cores)
	// TargetSF scales traffic statistics (the paper runs Hyrise at sf 50).
	TargetSF float64
}

// Engine is a loaded single-socket columnar database.
type Engine struct {
	data *ssb.Data
	opt  Options

	factScale float64
	dimScale  map[string]float64

	tableRegion *machine.Region // columns + intermediates + maps, socket 0

	sim *engine.Sim
	// labels holds each stage's per-thread stream labels, one lookup per
	// stage rather than per stream.
	labels engine.Memo[string, *stageLabels]
}

// stageLabels are runStage's per-thread stream labels for one stage.
type stageLabels struct {
	in, probe, mat []string
}

// QueryRun is one executed query.
type QueryRun = engine.QueryRun[Stats]

// Phase is one timed operator stage.
type Phase = engine.Phase

// Stats summarizes the run's traffic (scaled to TargetSF).
type Stats struct {
	ColumnBytesScanned int64
	Probes             int64
	GatherBytes        int64
	MaterializedBytes  int64
}

// New loads the data set on socket 0.
func New(m *machine.Machine, data *ssb.Data, opt Options) (*Engine, error) {
	if opt.Threads == 0 {
		opt.Threads = 36
	}
	if opt.Threads < 1 {
		return nil, fmt.Errorf("naive: threads = %d out of range", opt.Threads)
	}
	if opt.TargetSF == 0 {
		opt.TargetSF = data.SF
	}
	e := &Engine{data: data, opt: opt, sim: engine.NewSim(m),
		factScale: engine.Scale(data, "lineorder", opt.TargetSF),
		dimScale:  engine.DimScales(data, opt.TargetSF),
	}
	e.labels = engine.NewMemo(func(name string) *stageLabels {
		l := &stageLabels{
			in:    make([]string, opt.Threads),
			probe: make([]string, opt.Threads),
			mat:   make([]string, opt.Threads),
		}
		for t := 0; t < opt.Threads; t++ {
			l.in[t] = fmt.Sprintf("%s/in/t%02d", name, t)
			l.probe[t] = fmt.Sprintf("%s/probe/t%02d", name, t)
			l.mat[t] = fmt.Sprintf("%s/mat/t%02d", name, t)
		}
		return l
	})

	// Columnar fact footprint: ~17 4-byte columns, plus dims and headroom
	// for intermediates and hash maps.
	size := max(int64(ssb.RowsAt("lineorder", opt.TargetSF))*80, 1<<22)
	reg, err := engine.AllocTable(m, "hyrise/tables", 0, size, opt.Device)
	if err != nil {
		return nil, err
	}
	engine.Settle(m, reg)
	e.tableRegion = reg
	return e, nil
}

// dimSet is one build-side dimension: its surviving keys and selectivity.
// Membership is a dense bitmap instead of a hash map: cust/supp/part keys
// are dense and 1-based, and date keys decode to a calendar slot, so the
// probe loop's map lookup becomes a bounds check plus an array load. The
// surviving key set (and therefore every stage cardinality) is unchanged.
type dimSet struct {
	name    string
	keep    []bool // indexed by key (cust/supp/part) or by dateSlot (date)
	entries int    // surviving dim rows (former len(keep map))
	sel     float64
}

// dateSlot maps a yyyymmdd key to the same dense calendar slot the ssb
// package uses for its date index: (y-1992)*372 + (m-1)*31 + (day-1).
// Returns -1 for keys outside the 1992..1998 calendar.
func dateSlot(key uint32) int {
	y := key / 10000
	m := key / 100 % 100
	dd := key % 100
	if y < 1992 || y > 1998 || m < 1 || m > 12 || dd < 1 || dd > 31 {
		return -1
	}
	return int((y-1992)*372 + (m-1)*31 + (dd - 1))
}

const dateSlots = 7 * 372

// joinStage is one hash-join operator in the pipeline.
type joinStage struct {
	dim        string
	name       string // "join-<dim>", the stage's label prefix
	mapEntries int    // records in the build-side map (filtered dim rows)
	probesIn   int64  // rows probing this stage
	survivors  int64  // rows passing
	first      bool   // stage reads the base column, later stages gather
}

// dimMeta is what the traffic model needs to know about one build-side
// dimension after execution: the build maps themselves are not retained.
type dimMeta struct {
	name    string
	entries int // filtered dim rows in the build-side map
	// scanLabel and mapLabel label the dimension's build-phase streams.
	scanLabel, mapLabel string
}

// naiveExec is one query's executed plan. Like the aware engine's factExec
// it is a pure function of (data, query) — the dimension filters, the
// pipeline's stage cardinalities, and the exact result cannot depend on
// which simulated machine the engine charges — so engines sharing a data
// set share one execution via Data.Memo.
type naiveExec struct {
	dims          []dimMeta
	scanSurvivors int64
	stages        []joinStage
	matched       int64
	result        ssb.Result
}

// execFor builds (or recalls) the executed plan for q.
func (e *Engine) execFor(q ssb.Query) *naiveExec {
	return e.data.Memo("naive/exec/"+q.ID, func() any {
		d := e.data

		// Build-side hash maps over the filtered dimensions. Hyrise joins the
		// date dimension like any other table (no predicate pushdown into date
		// arithmetic — that is exactly the PMEM-aware trick it lacks).
		var dims []dimSet
		if q.DateFilter != nil || q.GroupBy != nil {
			keep := make([]bool, dateSlots)
			n := 0
			for i := range d.Date {
				if q.DateFilter == nil || q.DateFilter(&d.Date[i]) {
					keep[dateSlot(d.Date[i].DateKey)] = true
					n++
				}
			}
			dims = append(dims, dimSet{"date", keep, n, float64(n) / float64(len(d.Date))})
		}
		for _, dm := range engine.JoinedDims(d, q) {
			keep := make([]bool, dm.Rows+1)
			n := 0
			for i := 0; i < dm.Rows; i++ {
				if dm.Keep(i) {
					keep[dm.Key(i)] = true
					n++
				}
			}
			dims = append(dims, dimSet{dm.Name, keep, n, float64(n) / float64(dm.Rows)})
		}
		sort.Slice(dims, func(i, j int) bool { return dims[i].sel < dims[j].sel })

		// Fact pipeline: a column scan for the fact-local predicates, then one
		// hash-join stage per dimension, then the aggregate. Really executed.
		survivors := make([]int32, 0, len(d.Lineorder)/8)
		for i := range d.Lineorder {
			if q.LOFilter == nil || q.LOFilter(&d.Lineorder[i]) {
				survivors = append(survivors, int32(i))
			}
		}

		ex := &naiveExec{scanSurvivors: int64(len(survivors)), result: ssb.Result{}}

		// One fused pass over the scan survivors: each row walks the join
		// stages in selectivity order until its first miss, bumping the
		// per-stage survivor counters, and rows passing every stage are
		// aggregated immediately. Stage cardinalities are exactly what the
		// staged (materialize-per-operator) execution produced — probesIn of
		// stage i is stage i-1's survivors — because each stage's survivor
		// set is the same rows in the same order.
		counts := make([]int64, len(dims))
		grouper := ssb.NewGrouper()
		for _, ri := range survivors {
			lo := &d.Lineorder[ri]
			passed := 0
			for si := range dims {
				keep := dims[si].keep
				ok := false
				switch dims[si].name {
				case "date":
					s := dateSlot(lo.OrderDate)
					ok = s >= 0 && keep[s]
				case "customer":
					ok = int(lo.CustKey) < len(keep) && keep[lo.CustKey]
				case "supplier":
					ok = int(lo.SuppKey) < len(keep) && keep[lo.SuppKey]
				case "part":
					ok = int(lo.PartKey) < len(keep) && keep[lo.PartKey]
				}
				if !ok {
					break
				}
				counts[si]++
				passed++
			}
			if passed < len(dims) {
				continue
			}
			// Aggregate the fully matched row (exact result).
			date := d.DateByKey(lo.OrderDate)
			var c *ssb.Customer
			var s *ssb.Supplier
			var p *ssb.Part
			if q.NeedsCust {
				c = d.CustomerByKey(lo.CustKey)
			}
			if q.NeedsSupp {
				s = d.SupplierByKey(lo.SuppKey)
			}
			if q.NeedsPart {
				p = d.PartByKey(lo.PartKey)
			}
			grouper.Add(&q, lo, date, c, s, p, q.Aggregate(lo))
		}
		grouper.Emit(ex.result)

		in := int64(len(survivors))
		for si, ds := range dims {
			ex.dims = append(ex.dims, dimMeta{name: ds.name, entries: ds.entries,
				scanLabel: "build-scan/" + ds.name, mapLabel: "build-map/" + ds.name})
			ex.stages = append(ex.stages, joinStage{
				dim: ds.name, name: "join-" + ds.name, mapEntries: ds.entries,
				probesIn: in, survivors: counts[si], first: si == 0,
			})
			in = counts[si]
		}
		ex.matched = in
		return ex
	}).(*naiveExec)
}

// Run executes one query.
func (e *Engine) Run(q ssb.Query) (QueryRun, error) {
	ex := e.execFor(q)
	run := engine.NewRun[Stats](q.ID, ex.result, 2)

	buildSec, err := e.simulateBuild(ex.dims)
	if err != nil {
		return run, err
	}
	run.AddPhase("dim-scan+build", buildSec)

	factSec, stats, err := e.simulatePipeline(q, ex.scanSurvivors, ex.stages, ex.matched)
	if err != nil {
		return run, err
	}
	run.AddPhase("join-pipeline", factSec)
	run.Stats = stats
	return run, nil
}
