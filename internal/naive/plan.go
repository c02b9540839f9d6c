package naive

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ssb"
)

// Plan renders the unaware engine's pipeline for a query without running it:
// the operator sequence Hyrise-style execution produces — dimension scans
// and hash-map builds, then one join stage per dimension with
// reference-segment gathers, then the aggregate.
func (e *Engine) Plan(q ssb.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (flight %d) — PMEM-unaware columnar pipeline on socket 0, %d threads, device %s\n",
		q.ID, q.Flight, e.opt.Threads, e.tableRegion.Class)

	type dim struct {
		name string
		sel  float64
	}
	var dims []dim
	sels := ssb.Measure(e.data, q)
	if q.DateFilter != nil || q.GroupBy != nil {
		dims = append(dims, dim{"date", sels.Date})
	}
	if q.NeedsCust {
		dims = append(dims, dim{"customer", sels.Cust})
	}
	if q.NeedsSupp {
		dims = append(dims, dim{"supplier", sels.Supp})
	}
	if q.NeedsPart {
		dims = append(dims, dim{"part", sels.Part})
	}
	sort.Slice(dims, func(i, j int) bool { return dims[i].sel < dims[j].sel })

	step := 1
	if q.LOFilter != nil {
		fmt.Fprintf(&b, "%d. column scans for fact-local predicates (quantity, discount)\n", step)
		step++
	}
	for i, d := range dims {
		input := "base key column (sequential)"
		if i > 0 || q.LOFilter != nil {
			input = "gather via position list (random 64 B reads)"
		}
		fmt.Fprintf(&b, "%d. hash join %s (selectivity %.4f): chained-map probes, input %s, materialize intermediate\n",
			step, d.name, d.sel, input)
		step++
	}
	fmt.Fprintf(&b, "%d. hash aggregate over the final intermediate\n", step)
	b.WriteString("note: every probe is a dependent pointer chase — the access pattern Section 6.1 identifies as PMEM's worst\n")
	return b.String()
}
