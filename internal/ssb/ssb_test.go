package ssb

import (
	"testing"
)

func TestGenerateValidation(t *testing.T) {
	if _, err := Generate(0); err == nil {
		t.Error("Generate(0) succeeded")
	}
	if _, err := Generate(-1); err == nil {
		t.Error("Generate(-1) succeeded")
	}
}

func TestCardinalities(t *testing.T) {
	d := MustGenerate(0.01)
	if got := len(d.Lineorder); got != 60000 {
		t.Errorf("lineorder rows = %d, want 60000 at sf 0.01", got)
	}
	// 7 years 1992-1998 including leap days 1992 and 1996: 2557 days.
	// The SSB spec says 7 years; dbgen ships 2556 rows (it drops one leap
	// day); we keep the true calendar.
	if got := len(d.Date); got != 2557 {
		t.Errorf("date rows = %d, want 2557", got)
	}
	if len(d.Customer) == 0 || len(d.Supplier) == 0 || len(d.Part) == 0 {
		t.Error("empty dimension tables")
	}
	// sf >= 1 part scaling: 200k * (1 + floor(log2(sf))).
	if got := partCount(1); got != 200000 {
		t.Errorf("partCount(1) = %d, want 200000", got)
	}
	if got := partCount(4); got != 600000 {
		t.Errorf("partCount(4) = %d, want 600000", got)
	}
	if got := partCount(100); got != 1400000 {
		t.Errorf("partCount(100) = %d, want 1400000 (1+floor(log2(100))=7)", got)
	}
	// sf 100: 600M rows, ~70 GB at 128 B tuples ("600 million lineorder
	// entries in 70GB", Section 6.2).
	if got := lineorderCount(100); got != 600_000_000 {
		t.Errorf("lineorderCount(100) = %d, want 600M", got)
	}
	gb := float64(int64(lineorderCount(100))*TupleBytes) / 1e9
	if gb < 70 || gb > 80 {
		t.Errorf("sf100 fact bytes = %.1f GB, want ~76.8", gb)
	}
}

// TestRowsAtMatchesGenerate: RowsAt is the generator's own count for every
// table, including the minimum dimension sizes below sf 0.02.
func TestRowsAtMatchesGenerate(t *testing.T) {
	for _, sf := range []float64{0.005, 0.01, 0.05} {
		d := MustGenerate(sf)
		for _, table := range TableNames() {
			if got, want := RowsAt(table, sf), d.Rows(table); got != want || want == 0 {
				t.Errorf("sf %g %s: RowsAt = %d, generated %d", sf, table, got, want)
			}
		}
	}
	if RowsAt("nope", 1) != 0 || MustGenerate(0.005).Rows("nope") != 0 {
		t.Error("unknown table must count 0 rows")
	}
}

func TestDeterminism(t *testing.T) {
	a := MustGenerate(0.01)
	b := MustGenerate(0.01)
	for i := range a.Lineorder {
		if a.Lineorder[i] != b.Lineorder[i] {
			t.Fatalf("lineorder row %d differs between runs", i)
		}
	}
	for i := range a.Customer {
		if a.Customer[i] != b.Customer[i] {
			t.Fatalf("customer row %d differs between runs", i)
		}
	}
}

func TestForeignKeysResolve(t *testing.T) {
	d := MustGenerate(0.01)
	for i := range d.Lineorder {
		lo := &d.Lineorder[i]
		if d.DateByKey(lo.OrderDate) == nil {
			t.Fatalf("row %d: order date %d not in date table", i, lo.OrderDate)
		}
		if d.CustomerByKey(lo.CustKey) == nil {
			t.Fatalf("row %d: custkey %d unresolved", i, lo.CustKey)
		}
		if d.SupplierByKey(lo.SuppKey) == nil {
			t.Fatalf("row %d: suppkey %d unresolved", i, lo.SuppKey)
		}
		if d.PartByKey(lo.PartKey) == nil {
			t.Fatalf("row %d: partkey %d unresolved", i, lo.PartKey)
		}
	}
}

func TestLineorderDomains(t *testing.T) {
	d := MustGenerate(0.01)
	for i := range d.Lineorder {
		lo := &d.Lineorder[i]
		if lo.Quantity < 1 || lo.Quantity > 50 {
			t.Fatalf("row %d: quantity %d out of [1,50]", i, lo.Quantity)
		}
		if lo.Discount > 10 {
			t.Fatalf("row %d: discount %d out of [0,10]", i, lo.Discount)
		}
		if lo.Tax > 8 {
			t.Fatalf("row %d: tax %d out of [0,8]", i, lo.Tax)
		}
		wantRev := uint32(uint64(lo.ExtendedPrice) * uint64(100-lo.Discount) / 100)
		if lo.Revenue != wantRev {
			t.Fatalf("row %d: revenue %d != extendedprice*(100-discount)/100 = %d", i, lo.Revenue, wantRev)
		}
		if lo.CommitDate < lo.OrderDate {
			t.Fatalf("row %d: commit date %d before order date %d", i, lo.CommitDate, lo.OrderDate)
		}
	}
}

func TestDimensionDomains(t *testing.T) {
	d := MustGenerate(0.02)
	regionsSeen := map[string]bool{}
	for i := range d.Customer {
		c := &d.Customer[i]
		regionsSeen[c.Region] = true
		if len(c.City) != 10 {
			t.Fatalf("customer city %q not 10 chars", c.City)
		}
		// City prefix must derive from the nation.
		prefix := c.Nation
		if len(prefix) > 9 {
			prefix = prefix[:9]
		}
		if c.City[:len(prefix)] != prefix {
			t.Fatalf("city %q does not match nation %q", c.City, c.Nation)
		}
	}
	if len(regionsSeen) != 5 {
		t.Errorf("customer regions seen = %d, want 5", len(regionsSeen))
	}
	for i := range d.Part {
		p := &d.Part[i]
		if len(p.Category) != 7 { // "MFGR#12"
			t.Fatalf("part category %q malformed", p.Category)
		}
		if p.Brand1[:7] != p.Category {
			t.Fatalf("brand1 %q does not extend category %q", p.Brand1, p.Category)
		}
		if p.Category[:6] != p.MFGR {
			t.Fatalf("category %q does not extend mfgr %q", p.Category, p.MFGR)
		}
	}
}

func TestDateDimension(t *testing.T) {
	d := MustGenerate(0.01)
	first := d.Date[0]
	if first.DateKey != 19920101 || first.Year != 1992 {
		t.Errorf("first date = %+v", first)
	}
	last := d.Date[len(d.Date)-1]
	if last.DateKey != 19981231 {
		t.Errorf("last date key = %d, want 19981231", last.DateKey)
	}
	// YearMonth format used by Q3.4.
	dec97 := 0
	for i := range d.Date {
		if d.Date[i].YearMonth == "Dec1997" {
			dec97++
		}
	}
	if dec97 != 31 {
		t.Errorf("Dec1997 days = %d, want 31", dec97)
	}
	// WeekNumInYear 6 exists in 1994 (Q1.3's filter).
	wk6 := 0
	for i := range d.Date {
		if d.Date[i].Year == 1994 && d.Date[i].WeekNumInYear == 6 {
			wk6++
		}
	}
	if wk6 != 7 {
		t.Errorf("week 6 of 1994 has %d days, want 7", wk6)
	}
}

func TestQueriesComplete(t *testing.T) {
	qs := Queries()
	if len(qs) != 13 {
		t.Fatalf("Queries() returned %d, want 13", len(qs))
	}
	flights := map[int]int{}
	for _, q := range qs {
		flights[q.Flight]++
		if q.Aggregate == nil {
			t.Errorf("%s has no aggregate", q.ID)
		}
		if q.SQL == "" {
			t.Errorf("%s has no SQL text", q.ID)
		}
	}
	want := map[int]int{1: 3, 2: 3, 3: 4, 4: 3}
	for f, n := range want {
		if flights[f] != n {
			t.Errorf("flight %d has %d queries, want %d", f, flights[f], n)
		}
	}
	if _, err := QueryByID("Q2.1"); err != nil {
		t.Errorf("QueryByID(Q2.1): %v", err)
	}
	if _, err := QueryByID("Q9.9"); err == nil {
		t.Error("QueryByID(Q9.9) succeeded")
	}
}

func TestReferenceResultsNonTrivial(t *testing.T) {
	d := MustGenerate(0.2)
	for _, q := range Queries() {
		res := Reference(d, q)
		if q.ID == "Q3.4" {
			// Q3.4 drills down to two cities in one month: at small scale
			// factors it legitimately matches nothing. Just require that it
			// executes; its value is checked by the engine-agreement tests.
			continue
		}
		if len(res) == 0 {
			t.Errorf("%s produced no rows at sf 0.2", q.ID)
			continue
		}
		// Scalar flights aggregate under the "" key.
		if q.Flight == 1 {
			if len(res) != 1 {
				t.Errorf("%s produced %d groups, want 1", q.ID, len(res))
			}
			if res[""] <= 0 {
				t.Errorf("%s revenue = %d, want positive", q.ID, res[""])
			}
		} else if len(res) < 2 {
			t.Errorf("%s produced %d groups, want several", q.ID, len(res))
		}
	}
}

func TestMeasureSelectivities(t *testing.T) {
	d := MustGenerate(0.05)
	q, _ := QueryByID("Q2.1")
	sel := Measure(d, q)
	// p_category = MFGR#12 is 1 of 25 categories; s_region = AMERICA is 1
	// of 5 regions.
	if sel.Part < 0.02 || sel.Part > 0.06 {
		t.Errorf("part selectivity = %.3f, want ~0.04", sel.Part)
	}
	if sel.Supp < 0.12 || sel.Supp > 0.28 {
		t.Errorf("supplier selectivity = %.3f, want ~0.2", sel.Supp)
	}
	if sel.Date != 1 || sel.Cust != 1 {
		t.Errorf("unfiltered dims: date %.2f cust %.2f, want 1", sel.Date, sel.Cust)
	}
}

func TestResultEqual(t *testing.T) {
	a := Result{"x": 1, "y": 2}
	b := Result{"x": 1, "y": 2}
	c := Result{"x": 1, "y": 3}
	d := Result{"x": 1}
	if !a.Equal(b) {
		t.Error("equal results reported unequal")
	}
	if a.Equal(c) || a.Equal(d) {
		t.Error("unequal results reported equal")
	}
	if a.String() == "" {
		t.Error("String() empty")
	}
}

// TestRowsOrdering: flight 3's ORDER BY d_year asc, revenue desc is applied;
// the other flights order by group key (which embeds their ORDER BY columns
// in position).
func TestRowsOrdering(t *testing.T) {
	d := MustGenerate(0.05)
	q31, _ := QueryByID("Q3.1")
	rows := Reference(d, q31).Rows(q31)
	if len(rows) < 10 {
		t.Fatalf("too few rows (%d) to check ordering", len(rows))
	}
	for i := 1; i < len(rows); i++ {
		ya, yb := yearOfKey(rows[i-1].Key), yearOfKey(rows[i].Key)
		if ya > yb {
			t.Fatalf("year not ascending at %d: %s before %s", i, rows[i-1].Key, rows[i].Key)
		}
		if ya == yb && rows[i-1].Value < rows[i].Value {
			t.Fatalf("revenue not descending within year at %d: %d before %d", i, rows[i-1].Value, rows[i].Value)
		}
	}
	// Default ordering: Q2.1 sorts by key (year, brand).
	q21, _ := QueryByID("Q2.1")
	rows21 := Reference(d, q21).Rows(q21)
	for i := 1; i < len(rows21); i++ {
		if rows21[i-1].Key > rows21[i].Key {
			t.Fatalf("Q2.1 keys not ascending at %d", i)
		}
	}
}
