package engine

import (
	"math/bits"
	"runtime"
	"sort"
	"sync"

	"repro/internal/ssb"
)

// Pass-mask bits: one per dimension a fact row can fail to join.
const (
	DateBit uint8 = 1 << iota
	CustBit
	SuppBit
	PartBit
	AllBits = DateBit | CustBit | SuppBit | PartBit
)

// PassDim is one dimension as the fact pass filtered it.
type PassDim struct {
	Name    string
	Bit     uint8
	Entries int     // dimension rows the query's filter keeps
	Sel     float64 // Entries / dimension rows
	// Probes[k] counts the fact rows that probe join key k when the joined
	// dimensions are probed in the pass's Order, with the date predicate
	// pushed into the scan and each row stopping at its first miss. Nil for
	// date. Keys beyond the dimension's rows (which Generate never draws)
	// are not counted.
	Probes []int64
}

// FactPass is one query's single pass over the fact table. Every engine
// derives its execution from it: the exact result, how many rows reach and
// pass each join stage in any stage order (Hist), and how often each join
// key is probed in the ascending-selectivity order (Joined[i].Probes). It
// is a pure function of (data, query), so engines share one per query.
type FactPass struct {
	Date   PassDim   // the date dimension (every fact row has a date key)
	Joined []PassDim // the dimensions JoinedDims returns, in its order
	Order  []int     // indices into Joined by ascending selectivity
	// Hist counts the rows passing the fact-local filter by pass mask: bit
	// b is set when the row's key survives that dimension's filter. Bits of
	// dimensions the query does not join are always set.
	Hist   [16]int64
	Result ssb.Result
}

// Passing is how many rows pass the fact-local filter and every dimension
// in mask.
func (p *FactPass) Passing(mask uint8) int64 {
	var n int64
	for m, c := range p.Hist {
		if uint8(m)&mask == mask {
			n += c
		}
	}
	return n
}

// FactPassFor returns q's fact pass over d, computed once per data set and
// query ID (via d.Memo) on GOMAXPROCS host goroutines.
func FactPassFor(d *ssb.Data, q ssb.Query) *FactPass {
	return d.Memo("engine/pass/"+q.ID, func() any {
		return RunFactPass(d, q, runtime.GOMAXPROCS(0))
	}).(*FactPass)
}

// RunFactPass runs q's fact pass on the given number of host goroutines.
// Workers scan disjoint row ranges with private tallies and partial
// aggregates that merge by addition, so the pass does not depend on the
// worker count.
func RunFactPass(d *ssb.Data, q ssb.Query, workers int) *FactPass {
	p := &FactPass{Date: PassDim{Name: "date", Bit: DateBit}, Result: ssb.Result{}}
	// keep[b][k] is 1<<b when key k survives the filter of the dimension
	// behind bit 1<<b (date by DateSlot, the others by their dense 1-based
	// key), so the row loop ORs a row's mask together without branching.
	// Dimensions the query does not join keep a nil table and their bit in
	// fixed.
	var keep [4][]uint8
	fixed := AllBits &^ DateBit
	keep[0] = make([]uint8, ssb.DateSlots)
	for i := range d.Date {
		if q.DateFilter == nil || q.DateFilter(&d.Date[i]) {
			keep[0][ssb.DateSlot(d.Date[i].DateKey)] = DateBit
			p.Date.Entries++
		}
	}
	p.Date.Sel = float64(p.Date.Entries) / float64(len(d.Date))
	var joined []int // bit positions of the joined dimensions
	for _, dm := range JoinedDims(d, q) {
		pd := PassDim{Name: dm.Name, Bit: dm.Bit}
		k := make([]uint8, dm.Rows+1)
		for i := 0; i < dm.Rows; i++ {
			if dm.Keep(i) {
				k[dm.Key(i)] = dm.Bit
				pd.Entries++
			}
		}
		pd.Sel = float64(pd.Entries) / float64(dm.Rows)
		keep[bits.TrailingZeros8(dm.Bit)] = k
		fixed &^= dm.Bit
		joined = append(joined, bits.TrailingZeros8(dm.Bit))
		p.Joined = append(p.Joined, pd)
	}
	p.Order = make([]int, len(p.Joined))
	for i := range p.Order {
		p.Order[i] = i
	}
	sort.Slice(p.Order, func(i, j int) bool { return p.Joined[p.Order[i]].Sel < p.Joined[p.Order[j]].Sel })
	order := make([]int, len(p.Order))
	for i, j := range p.Order {
		order[i] = joined[j]
	}

	rows := len(d.Lineorder)
	workers = max(1, min(workers, rows))
	parts := make([]passWorker, workers)
	chunk := (rows + workers - 1) / workers
	var wg sync.WaitGroup
	for w := range parts {
		wg.Add(1)
		go func(pw *passWorker, lo, hi int) {
			defer wg.Done()
			pw.scan(d, &q, &keep, fixed, order, lo, hi)
		}(&parts[w], min(w*chunk, rows), min((w+1)*chunk, rows))
	}
	wg.Wait()

	for w := range parts {
		pw := &parts[w]
		for m, c := range pw.hist {
			p.Hist[m] += c
		}
		for k, v := range pw.result {
			p.Result[k] += v
		}
	}
	for i := range p.Joined {
		b := joined[i]
		sum := parts[0].probes[b]
		for w := 1; w < len(parts); w++ {
			for k, n := range parts[w].probes[b] {
				sum[k] += n
			}
		}
		p.Joined[i].Probes = sum
	}
	return p
}

// passWorker is one goroutine's share of a fact pass.
type passWorker struct {
	hist   [16]int64
	probes [4][]int64 // per bit position, like keep
	result ssb.Result
}

// scan passes rows [lo, hi): fixed holds the bits of the dimensions q does
// not join, order the joined dimensions' bit positions in probe order.
func (w *passWorker) scan(d *ssb.Data, q *ssb.Query, keep *[4][]uint8, fixed uint8, order []int, lo, hi int) {
	for _, b := range order {
		w.probes[b] = make([]int64, len(keep[b]))
	}
	dk, ck, sk, pk := keep[0], keep[1], keep[2], keep[3]
	probes := w.probes
	var hist [16]int64
	// Group sums accumulate through an arena-backed Grouper: a key string
	// is built only the first time its group appears.
	g := ssb.NewGrouper()
	lof := q.LOFilter
	rows := d.Lineorder[lo:hi]
	for i := range rows {
		row := &rows[i]
		if lof != nil && !lof(row) {
			continue
		}
		m := fixed
		if s := ssb.DateSlot(row.OrderDate); s >= 0 {
			m |= dk[s]
		}
		if k := int(row.CustKey); k < len(ck) {
			m |= ck[k]
		}
		if k := int(row.SuppKey); k < len(sk) {
			m |= sk[k]
		}
		if k := int(row.PartKey); k < len(pk) {
			m |= pk[k]
		}
		hist[m&AllBits]++
		if m&DateBit == 0 {
			continue
		}
		// The date predicate is pushed into the scan; the row then probes
		// each dimension in order until its first miss.
		keys := [4]uint32{0, row.CustKey, row.SuppKey, row.PartKey}
		for _, b := range order {
			if k := keys[b]; int(k) < len(probes[b]) {
				probes[b][k]++
			}
			if m&(1<<b) == 0 {
				break
			}
		}
		if m != AllBits {
			continue
		}
		var c *ssb.Customer
		var s *ssb.Supplier
		var pt *ssb.Part
		if q.NeedsCust {
			c = d.CustomerByKey(row.CustKey)
		}
		if q.NeedsSupp {
			s = d.SupplierByKey(row.SuppKey)
		}
		if q.NeedsPart {
			pt = d.PartByKey(row.PartKey)
		}
		g.Add(q, row, d.DateByKey(row.OrderDate), c, s, pt, q.Aggregate(row))
	}
	w.hist = hist
	w.result = make(ssb.Result, g.Len())
	g.Emit(w.result)
}
