// Package engine is the substrate the two SSB engines share: the run and
// phase types, target-scale cardinalities, the filtered dimensions a query
// joins, the one fact pass per query both engines derive their executions
// from, the cache model, table regions, and the simulation scratch that
// charges a batch of streams to the machine.
//
// What stays in internal/naive and internal/aware is where the paper says
// the engines differ (Section 6): each engine's executed plan, traffic
// model, stream shapes, and cost constants.
package engine

import (
	"math"

	"repro/internal/access"
	"repro/internal/machine"
	"repro/internal/ssb"
	"repro/internal/topology"
)

// Phase is one timed stage of a query.
type Phase struct {
	Name    string
	Seconds float64
}

// QueryRun is one executed query: its exact result, simulated timing, and
// the engine's traffic statistics S (scaled to the target scale factor).
type QueryRun[S any] struct {
	ID      string
	Result  ssb.Result
	Seconds float64
	Phases  []Phase
	Stats   S
}

// NewRun starts a run of query id with a private copy of result (executions
// are memoized and shared, and callers may hold QueryRun.Result past the
// run) and room for the given number of phases.
func NewRun[S any](id string, result ssb.Result, phases int) QueryRun[S] {
	run := QueryRun[S]{ID: id, Result: make(ssb.Result, len(result)), Phases: make([]Phase, 0, phases)}
	for k, v := range result {
		run.Result[k] = v
	}
	return run
}

// AddPhase appends a timed phase and adds it to the run's total.
func (r *QueryRun[S]) AddPhase(name string, seconds float64) {
	r.Phases = append(r.Phases, Phase{name, seconds})
	r.Seconds += seconds
}

// Runner is what a driver needs from either engine: one query's exact
// result and its simulated seconds.
type Runner func(ssb.Query) (ssb.Result, float64, error)

// RunnerOf adapts an engine's Run method to a Runner.
func RunnerOf[S any](run func(ssb.Query) (QueryRun[S], error)) Runner {
	return func(q ssb.Query) (ssb.Result, float64, error) {
		r, err := run(q)
		return r.Result, r.Seconds, err
	}
}

// Scale is the factor from statistics measured on d's table to the
// generator's cardinality at the target scale factor (SSB is uniform, so
// linear extrapolation is exact in expectation).
func Scale(d *ssb.Data, table string, target float64) float64 {
	have := d.Rows(table)
	if have == 0 {
		return 1
	}
	return float64(ssb.RowsAt(table, target)) / float64(have)
}

// DimScales is Scale for every dimension table, keyed by name.
func DimScales(d *ssb.Data, target float64) map[string]float64 {
	out := map[string]float64{}
	for _, table := range []string{"date", "customer", "supplier", "part"} {
		out[table] = Scale(d, table, target)
	}
	return out
}

// Dim is one keyed dimension a query joins: Bit is its pass-mask bit, Keep
// reports whether the query's predicate keeps row i, Key is that row's join
// key.
type Dim struct {
	Name string
	Bit  uint8
	Rows int
	Keep func(i int) bool
	Key  func(i int) uint32
}

// JoinedDims returns the customer, supplier, and part dimensions q joins,
// in that order. The date dimension is not among them: the engines treat
// it differently (the naive engine joins it, the aware one pushes its
// predicate into the scan).
func JoinedDims(d *ssb.Data, q ssb.Query) []Dim {
	var out []Dim
	if q.NeedsCust {
		out = append(out, Dim{"customer", CustBit, len(d.Customer),
			func(i int) bool { return q.CustFilter == nil || q.CustFilter(&d.Customer[i]) },
			func(i int) uint32 { return d.Customer[i].CustKey }})
	}
	if q.NeedsSupp {
		out = append(out, Dim{"supplier", SuppBit, len(d.Supplier),
			func(i int) bool { return q.SuppFilter == nil || q.SuppFilter(&d.Supplier[i]) },
			func(i int) uint32 { return d.Supplier[i].SuppKey }})
	}
	if q.NeedsPart {
		out = append(out, Dim{"part", PartBit, len(d.Part),
			func(i int) bool { return q.PartFilter == nil || q.PartFilter(&d.Part[i]) },
			func(i int) uint32 { return d.Part[i].PartKey }})
	}
	return out
}

// CacheMissRate is the share of probe traffic that reaches memory when a
// working set of the given bytes shares llc bytes of last-level cache, of
// which at most maxHit stays resident across a scan.
func CacheMissRate(llc, maxHit, bytes float64) float64 {
	return 1 - maxHit*math.Min(1, llc/math.Max(bytes, 1))
}

// AllocTable allocates a table region on one socket: DRAM, or fsdax PMEM
// pre-faulted because the data is written at load (the paper's SSB runs on
// fsdax: "Dash requires a filesystem interface"). Any device other than
// DRAM means PMEM.
func AllocTable(m *machine.Machine, name string, sock topology.SocketID, size int64, dev access.DeviceClass) (*machine.Region, error) {
	if dev == access.DRAM {
		return m.AllocDRAM(name, sock, size)
	}
	r, err := m.AllocPMEM(name, sock, size, machine.FsDax)
	if err == nil {
		r.PreFault()
	}
	return r, err
}

// Settle puts table regions into steady-state query service: coherency
// mappings established for every socket and the read-only tables'
// directory entries settled in shared state.
func Settle(m *machine.Machine, regions ...*machine.Region) {
	for _, r := range regions {
		r.CoherenceStable = true
	}
	for o := 0; o < m.Topology().Sockets(); o++ {
		for _, r := range regions {
			r.WarmFor(topology.SocketID(o))
		}
	}
}
