package aware

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/ssb"
)

// Plan renders the engine's execution plan for a query without running it —
// the EXPLAIN view of the handcrafted design: which predicates are pushed
// into the scan, which dimensions get Dash indexes, in what order they are
// probed, and how the fact table is partitioned.
func (e *Engine) Plan(q ssb.Query) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (flight %d)\n", q.ID, q.Flight)
	fmt.Fprintf(&b, "fact scan: %d rows x %d B tuples, %d partition(s), %d threads, %s pinning, device %s\n",
		len(e.data.Lineorder), ssb.TupleBytes, e.opt.Sockets, e.opt.Threads,
		e.opt.Pinning, e.factRegion[0].Class)
	if q.LOFilter != nil {
		b.WriteString("  pushed down: fact-local predicates (quantity/discount)\n")
	}
	if q.DateFilter != nil {
		b.WriteString("  pushed down: date predicate via in-cache lookup (no join)\n")
	} else if q.GroupBy != nil {
		b.WriteString("  date attributes fetched via in-cache lookup (no join)\n")
	}

	indexes := e.buildIndexes(q)
	sort.Slice(indexes, func(i, j int) bool { return indexes[i].selectivity < indexes[j].selectivity })
	if len(indexes) == 0 {
		b.WriteString("no hash joins\n")
	} else {
		b.WriteString("hash joins (Dash, probe order by ascending selectivity):\n")
		for i, ix := range indexes {
			fmt.Fprintf(&b, "  %d. %-9s %7d entries (selectivity %.4f), index %s, replicated per socket\n",
				i+1, ix.name, ix.entries, ix.selectivity,
				formatBytes(float64(ix.ix.MemoryBytes())))
		}
	}
	if e.opt.HybridDims {
		b.WriteString("placement: hybrid — fact on PMEM, dimension indexes in DRAM\n")
	}
	if q.GroupBy != nil {
		b.WriteString("aggregate: per-thread partial hash aggregation, merged\n")
	} else {
		b.WriteString("aggregate: scalar sum\n")
	}
	return b.String()
}

func formatBytes(n float64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1f GiB", n/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1f MiB", n/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1f KiB", n/(1<<10))
	default:
		return fmt.Sprintf("%.0f B", n)
	}
}
