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
// Like the aware engine, it derives each query's operator cardinalities and
// exact result from the query's one real execution over the generated data
// (engine.FactPass) and charges its own traffic to the simulated machine;
// the timing gap between the two engines on PMEM is Figure 14's headline
// contrast.
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
// dimension: the build maps themselves are never materialized.
type dimMeta struct {
	name    string
	entries int // filtered dim rows in the build-side map
	// scanLabel and mapLabel label the dimension's build-phase streams.
	scanLabel, mapLabel string
}

// naiveExec is one query's executed plan: the dimension filters, the
// pipeline's stage cardinalities, and the exact result. Like the aware
// engine's factExec it derives from the query's shared fact pass and so is
// a pure function of (data, query), shared through Data.Memo by every
// machine the engine charges.
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
		p := engine.FactPassFor(e.data, q)

		// Build-side hash maps over the filtered dimensions. Hyrise joins the
		// date dimension like any other table (no predicate pushdown into date
		// arithmetic — that is exactly the PMEM-aware trick it lacks).
		var dims []engine.PassDim
		if q.DateFilter != nil || q.GroupBy != nil {
			dims = append(dims, p.Date)
		}
		dims = append(dims, p.Joined...)
		sort.Slice(dims, func(i, j int) bool { return dims[i].Sel < dims[j].Sel })

		// Fact pipeline: a column scan for the fact-local predicates, then one
		// hash-join stage per dimension in selectivity order, then the
		// aggregate. Stage i's probes are stage i-1's survivors: the rows
		// passing every dimension probed so far, which the pass's mask
		// histogram counts for any order.
		ex := &naiveExec{scanSurvivors: p.Passing(0), result: p.Result}
		in, mask := ex.scanSurvivors, uint8(0)
		for si, ds := range dims {
			mask |= ds.Bit
			out := p.Passing(mask)
			ex.dims = append(ex.dims, dimMeta{name: ds.Name, entries: ds.Entries,
				scanLabel: "build-scan/" + ds.Name, mapLabel: "build-map/" + ds.Name})
			ex.stages = append(ex.stages, joinStage{
				dim: ds.Name, name: "join-" + ds.Name, mapEntries: ds.Entries,
				probesIn: in, survivors: out, first: si == 0,
			})
			in = out
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
