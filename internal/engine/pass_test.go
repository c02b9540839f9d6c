package engine

import (
	"fmt"
	"sort"
	"sync"
	"testing"

	"repro/internal/dash"
	"repro/internal/ssb"
)

// The oracles below are the two per-engine row loops the fact pass replaced,
// kept test-local: the naive engine's fused scan-join pipeline and the aware
// engine's parallel scan-probe-aggregate over per-key Dash probe tables.

// oracleDateSlot is the naive engine's own calendar-slot decoding.
func oracleDateSlot(key uint32) int {
	y, m, dd := key/10000, key/100%100, key%100
	if y < 1992 || y > 1998 || m < 1 || m > 12 || dd < 1 || dd > 31 {
		return -1
	}
	return int((y-1992)*372 + (m-1)*31 + (dd - 1))
}

type oracleStage struct {
	dim      string
	entries  int
	in, pass int64
}

type naiveOracle struct {
	scanSurvivors int64
	stages        []oracleStage
	matched       int64
	result        ssb.Result
}

// runNaiveOracle is the naive engine's fused loop: filter dimensions into
// key bitmaps, sort them by selectivity, collect the fact-filter survivors,
// walk each through the join stages until its first miss, and aggregate the
// rows that pass them all.
func runNaiveOracle(d *ssb.Data, q ssb.Query) naiveOracle {
	type dimSet struct {
		name    string
		keep    []bool
		entries int
		sel     float64
	}
	var dims []dimSet
	if q.DateFilter != nil || q.GroupBy != nil {
		keep := make([]bool, 7*372)
		n := 0
		for i := range d.Date {
			if q.DateFilter == nil || q.DateFilter(&d.Date[i]) {
				keep[oracleDateSlot(d.Date[i].DateKey)] = true
				n++
			}
		}
		dims = append(dims, dimSet{"date", keep, n, float64(n) / float64(len(d.Date))})
	}
	for _, dm := range JoinedDims(d, q) {
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

	var survivors []int32
	for i := range d.Lineorder {
		if q.LOFilter == nil || q.LOFilter(&d.Lineorder[i]) {
			survivors = append(survivors, int32(i))
		}
	}
	out := naiveOracle{scanSurvivors: int64(len(survivors)), result: ssb.Result{}}
	counts := make([]int64, len(dims))
	g := ssb.NewGrouper()
	for _, ri := range survivors {
		lo := &d.Lineorder[ri]
		passed := 0
		for si := range dims {
			keep := dims[si].keep
			ok := false
			switch dims[si].name {
			case "date":
				s := oracleDateSlot(lo.OrderDate)
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
		g.Add(&q, lo, d.DateByKey(lo.OrderDate), c, s, p, q.Aggregate(lo))
	}
	g.Emit(out.result)
	in := out.scanSurvivors
	for si, ds := range dims {
		out.stages = append(out.stages, oracleStage{ds.name, ds.entries, in, counts[si]})
		in = counts[si]
	}
	out.matched = in
	return out
}

// oracleIndex is one aware-engine join index.
type oracleIndex struct {
	name    string
	ix      *dash.Index
	entries int
	sel     float64
}

// buildOracleIndexes builds the aware engine's filtered Dash indexes in
// JoinedDims order.
func buildOracleIndexes(d *ssb.Data, q ssb.Query) []*oracleIndex {
	var out []*oracleIndex
	for _, dm := range JoinedDims(d, q) {
		depth := uint8(4)
		if dm.Name == "supplier" {
			depth = 2
		}
		ix := dash.MustNew(depth)
		n := 0
		for i := 0; i < dm.Rows; i++ {
			if dm.Keep(i) {
				if err := ix.Insert(uint64(dm.Key(i)), uint64(i)); err != nil {
					panic(err)
				}
				n++
			}
		}
		out = append(out, &oracleIndex{dm.Name, ix, n, float64(n) / float64(dm.Rows)})
	}
	return out
}

type awareOracle struct {
	probeOrder []string
	qualifying int64
	factStats  []dash.Stats // in JoinedDims order
	result     ssb.Result
}

// runAwareOracle is the aware engine's parallel fact loop: each index's
// answers and per-key bucket reads are tabled over the dense key domain,
// the counters reset, and worker goroutines scan disjoint row ranges
// (fact-local filter, pushed-down date predicate, probes in selectivity
// order with an early break), tallying the reads their probes replay.
func runAwareOracle(d *ssb.Data, q ssb.Query, workers int) awareOracle {
	indexes := buildOracleIndexes(d, q)
	order := append([]*oracleIndex(nil), indexes...)
	sort.Slice(order, func(i, j int) bool { return order[i].sel < order[j].sel })
	type table struct {
		ix    *oracleIndex
		ord   []uint32
		hit   []bool
		reads []uint8
	}
	tables := make([]*table, len(order))
	for i, ix := range order {
		n := d.Rows(ix.name)
		t := &table{ix, make([]uint32, n+1), make([]bool, n+1), make([]uint8, n+1)}
		before := ix.ix.Stats().BucketReads
		for k := 1; k <= n; k++ {
			v, hit := ix.ix.Get(uint64(k))
			after := ix.ix.Stats().BucketReads
			t.ord[k], t.hit[k], t.reads[k] = uint32(v), hit, uint8(after-before)
			before = after
		}
		tables[i] = t
		ix.ix.ResetStats()
	}
	lookup := func(t *table, key uint32, reads *int64) (uint32, bool) {
		if key == 0 || int(key) >= len(t.hit) {
			v, hit := t.ix.ix.Get(uint64(key))
			return uint32(v), hit
		}
		*reads += int64(t.reads[key])
		return t.ord[key], t.hit[key]
	}

	type partial struct {
		result     ssb.Result
		qualifying int64
		reads      []int64
	}
	parts := make([]partial, workers)
	var wg sync.WaitGroup
	chunk := (len(d.Lineorder) + workers - 1) / workers
	for w := 0; w < workers; w++ {
		lo, hi := min(w*chunk, len(d.Lineorder)), min((w+1)*chunk, len(d.Lineorder))
		wg.Add(1)
		go func(w, lo, hi int) {
			defer wg.Done()
			g := ssb.NewGrouper()
			reads := make([]int64, len(tables))
			var qual int64
			for i := lo; i < hi; i++ {
				row := &d.Lineorder[i]
				if q.LOFilter != nil && !q.LOFilter(row) {
					continue
				}
				date := d.DateByKey(row.OrderDate)
				if q.DateFilter != nil && !q.DateFilter(date) {
					continue
				}
				var c *ssb.Customer
				var s *ssb.Supplier
				var p *ssb.Part
				ok := true
				for ti, t := range tables {
					var v uint32
					switch t.ix.name {
					case "customer":
						if v, ok = lookup(t, row.CustKey, &reads[ti]); ok {
							c = &d.Customer[v]
						}
					case "supplier":
						if v, ok = lookup(t, row.SuppKey, &reads[ti]); ok {
							s = &d.Supplier[v]
						}
					case "part":
						if v, ok = lookup(t, row.PartKey, &reads[ti]); ok {
							p = &d.Part[v]
						}
					}
					if !ok {
						break
					}
				}
				if !ok {
					continue
				}
				qual++
				g.Add(&q, row, date, c, s, p, q.Aggregate(row))
			}
			res := make(ssb.Result, g.Len())
			g.Emit(res)
			parts[w] = partial{res, qual, reads}
		}(w, lo, hi)
	}
	wg.Wait()

	out := awareOracle{result: ssb.Result{}}
	replayed := map[*oracleIndex]int64{}
	for _, p := range parts {
		out.qualifying += p.qualifying
		for k, v := range p.result {
			out.result[k] += v
		}
		for ti, n := range p.reads {
			replayed[tables[ti].ix] += n
		}
	}
	for _, ix := range order {
		out.probeOrder = append(out.probeOrder, ix.name)
	}
	for _, ix := range indexes {
		st := ix.ix.Stats()
		st.BucketReads += replayed[ix]
		out.factStats = append(out.factStats, st)
	}
	return out
}

// checkFactPass compares one pass against both oracles: the naive stage
// cardinalities it implies, the aware engine's qualifying rows, probe order
// and per-index fact-phase Dash counters, and the result.
func checkFactPass(t *testing.T, d *ssb.Data, q ssb.Query, p *FactPass) {
	t.Helper()
	no := runNaiveOracle(d, q)
	ao := runAwareOracle(d, q, 3)
	ref := ssb.Reference(d, q)
	for name, r := range map[string]ssb.Result{"pass": p.Result, "naive oracle": no.result, "aware oracle": ao.result} {
		if !r.Equal(ref) {
			t.Errorf("%s: %s result differs from ssb.Reference", q.ID, name)
		}
	}

	// Naive: stage order by selectivity, each stage's probes and survivors
	// from the mask histogram.
	dims := []PassDim{}
	if q.DateFilter != nil || q.GroupBy != nil {
		dims = append(dims, p.Date)
	}
	dims = append(dims, p.Joined...)
	sort.Slice(dims, func(i, j int) bool { return dims[i].Sel < dims[j].Sel })
	var got []oracleStage
	in, mask := p.Passing(0), uint8(0)
	if in != no.scanSurvivors {
		t.Errorf("%s: scan survivors %d, oracle %d", q.ID, in, no.scanSurvivors)
	}
	for _, ds := range dims {
		mask |= ds.Bit
		out := p.Passing(mask)
		got = append(got, oracleStage{ds.Name, ds.Entries, in, out})
		in = out
	}
	if fmt.Sprint(got) != fmt.Sprint(no.stages) || in != no.matched {
		t.Errorf("%s: stages %v matched %d, oracle %v matched %d", q.ID, got, in, no.stages, no.matched)
	}

	// Aware: qualifying rows, probe order, and the fact-phase counters of a
	// freshly built index probed Probes[k] times for every key k.
	if n := p.Hist[AllBits]; n != ao.qualifying {
		t.Errorf("%s: qualifying %d, oracle %d", q.ID, n, ao.qualifying)
	}
	var order []string
	for _, i := range p.Order {
		order = append(order, p.Joined[i].Name)
	}
	if fmt.Sprint(order) != fmt.Sprint(ao.probeOrder) {
		t.Errorf("%s: probe order %v, oracle %v", q.ID, order, ao.probeOrder)
	}
	for i, ix := range buildOracleIndexes(d, q) {
		ix.ix.ResetStats()
		for k, n := range p.Joined[i].Probes {
			for ; n > 0; n-- {
				ix.ix.Get(uint64(k))
			}
		}
		if got := ix.ix.Stats(); got != ao.factStats[i] {
			t.Errorf("%s %s: fact-phase stats %+v, oracle %+v", q.ID, ix.name, got, ao.factStats[i])
		}
	}
}

func revenueOf(lo *ssb.Lineorder) int64 { return int64(lo.Revenue) }

// syntheticQueries cover the corners the 13 SSB queries miss.
func syntheticQueries() []ssb.Query {
	return []ssb.Query{
		{ID: "no-filters", Aggregate: revenueOf},
		{ID: "fact-local-only", Aggregate: revenueOf,
			LOFilter: func(lo *ssb.Lineorder) bool { return lo.Quantity < 10 }},
		{ID: "dim-keeps-nothing", Aggregate: revenueOf, NeedsCust: true, NeedsPart: true,
			DateFilter: func(d *ssb.Date) bool { return d.Year == 1995 },
			CustFilter: func(*ssb.Customer) bool { return false },
			PartFilter: func(p *ssb.Part) bool { return p.Size < 10 }},
		{ID: "group-by-no-date-filter", NeedsSupp: true,
			SuppFilter: func(s *ssb.Supplier) bool { return s.Region == "ASIA" },
			GroupBy: func(lo *ssb.Lineorder, d *ssb.Date, c *ssb.Customer, s *ssb.Supplier, p *ssb.Part) string {
				return fmt.Sprintf("%d|%s", d.Year, s.Nation)
			},
			Aggregate: func(lo *ssb.Lineorder) int64 { return int64(lo.Revenue) - int64(lo.SupplyCost) }},
	}
}

// TestFactPassMatchesRowLoops: the shared fact pass reproduces exactly what
// the two per-engine row loops it replaced computed, for every SSB query at
// two scale factors and for synthetic corner queries.
func TestFactPassMatchesRowLoops(t *testing.T) {
	for _, sf := range []float64{0.02, 0.05} {
		d := ssb.MustGenerate(sf)
		qs := ssb.Queries()
		if sf == 0.02 {
			qs = append(qs, syntheticQueries()...)
		}
		for _, q := range qs {
			t.Run(fmt.Sprintf("sf=%g/%s", sf, q.ID), func(t *testing.T) {
				checkFactPass(t, d, q, RunFactPass(d, q, 2))
			})
		}
	}
}
