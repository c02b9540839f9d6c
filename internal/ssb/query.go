package ssb

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
)

// Query is one SSB query as an executable specification. Both engines (the
// PMEM-aware handcrafted one and the Hyrise-like naive one) interpret the
// same specification, so their results can be compared row for row.
//
// A nil dimension filter means the query does not restrict that dimension;
// the Needs* flags say whether the dimension must be joined at all (for a
// filter or for a group-by column).
type Query struct {
	ID     string
	Flight int
	// SQL is the query's original SSB text (O'Neil et al.), for
	// documentation and display; the engines execute the structured spec
	// below, which tests verify against the reference executor.
	SQL string

	DateFilter func(*Date) bool
	CustFilter func(*Customer) bool
	SuppFilter func(*Supplier) bool
	PartFilter func(*Part) bool
	// LOFilter holds fact-local predicates (discount, quantity).
	LOFilter func(*Lineorder) bool

	NeedsCust, NeedsSupp, NeedsPart bool

	// GroupBy renders the group key; empty string for scalar aggregates.
	GroupBy func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string
	// GroupAppend, when non-nil, appends exactly GroupBy's bytes to dst
	// and returns it. Engines use it with a reusable buffer so the hot
	// aggregation loop allocates a key string only the first time a group
	// appears, not once per qualifying row
	// (TestGroupAppendMatchesGroupBy pins the equivalence).
	GroupAppend func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte
	// Aggregate returns the row's contribution (revenue or profit, cents).
	Aggregate func(lo *Lineorder) int64
	// OrderBy orders two result rows per the query's ORDER BY clause; nil
	// means ascending group key (which matches the flights whose keys embed
	// the ordering columns in position).
	OrderBy func(a, b ResultRow) bool
}

// ResultRow is one ordered output row.
type ResultRow struct {
	Key   string
	Value int64
}

// Result is a query result: group key -> aggregate (cents). Scalar queries
// use the single key "".
type Result map[string]int64

// String renders the result deterministically (sorted by group key).
func (r Result) String() string {
	keys := make([]string, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, "%s\t%d\n", k, r[k])
	}
	return b.String()
}

// Rows returns the result as ordered rows per the query's ORDER BY.
func (r Result) Rows(q Query) []ResultRow {
	rows := make([]ResultRow, 0, len(r))
	for k, v := range r {
		rows = append(rows, ResultRow{Key: k, Value: v})
	}
	less := q.OrderBy
	if less == nil {
		less = func(a, b ResultRow) bool { return a.Key < b.Key }
	}
	sort.SliceStable(rows, func(i, j int) bool { return less(rows[i], rows[j]) })
	return rows
}

// yearOfKey extracts the trailing |-separated field as the year; the
// flight-3 group keys are "c|s|year".
func yearOfKey(k string) string {
	if i := strings.LastIndexByte(k, '|'); i >= 0 {
		return k[i+1:]
	}
	return k
}

// byYearAscRevenueDesc is flight 3's ORDER BY d_year asc, revenue desc.
func byYearAscRevenueDesc(a, b ResultRow) bool {
	ya, yb := yearOfKey(a.Key), yearOfKey(b.Key)
	if ya != yb {
		return ya < yb
	}
	if a.Value != b.Value {
		return a.Value > b.Value
	}
	return a.Key < b.Key
}

// Equal compares two results exactly.
func (r Result) Equal(o Result) bool {
	if len(r) != len(o) {
		return false
	}
	for k, v := range r {
		if o[k] != v {
			return false
		}
	}
	return true
}

// yearString renders a d_year group-by column. The calendar spans
// 1992..1998, so the common path is a table lookup instead of an
// allocation — GroupBy runs once per qualifying fact row, and the
// engines' hot loops are dominated by key rendering.
var yearStrings = [...]string{"1992", "1993", "1994", "1995", "1996", "1997", "1998"}

func yearString(y uint16) string {
	if y >= 1992 && y <= 1998 {
		return yearStrings[y-1992]
	}
	return strconv.Itoa(int(y))
}

func revenue(lo *Lineorder) int64 { return int64(lo.Revenue) }
func profit(lo *Lineorder) int64  { return int64(lo.Revenue) - int64(lo.SupplyCost) }
func discountedRevenue(lo *Lineorder) int64 {
	return int64(lo.ExtendedPrice) * int64(lo.Discount) / 100
}

// Queries returns the 13 SSB queries (O'Neil et al., Section 3; the paper's
// Section 6 runs exactly these).
func Queries() []Query {
	qs := []Query{
		{
			ID:         "Q1.1",
			SQL:        `select sum(lo_extendedprice*lo_discount) as revenue from lineorder, date where lo_orderdate = d_datekey and d_year = 1993 and lo_discount between 1 and 3 and lo_quantity < 25`,
			Flight:     1,
			DateFilter: func(d *Date) bool { return d.Year == 1993 },
			LOFilter: func(lo *Lineorder) bool {
				return lo.Discount >= 1 && lo.Discount <= 3 && lo.Quantity < 25
			},
			Aggregate: discountedRevenue,
		},
		{
			ID:         "Q1.2",
			SQL:        `select sum(lo_extendedprice*lo_discount) as revenue from lineorder, date where lo_orderdate = d_datekey and d_yearmonthnum = 199401 and lo_discount between 4 and 6 and lo_quantity between 26 and 35`,
			Flight:     1,
			DateFilter: func(d *Date) bool { return d.YearMonthNum == 199401 },
			LOFilter: func(lo *Lineorder) bool {
				return lo.Discount >= 4 && lo.Discount <= 6 && lo.Quantity >= 26 && lo.Quantity <= 35
			},
			Aggregate: discountedRevenue,
		},
		{
			ID:         "Q1.3",
			SQL:        `select sum(lo_extendedprice*lo_discount) as revenue from lineorder, date where lo_orderdate = d_datekey and d_weeknuminyear = 6 and d_year = 1994 and lo_discount between 5 and 7 and lo_quantity between 26 and 35`,
			Flight:     1,
			DateFilter: func(d *Date) bool { return d.WeekNumInYear == 6 && d.Year == 1994 },
			LOFilter: func(lo *Lineorder) bool {
				return lo.Discount >= 5 && lo.Discount <= 7 && lo.Quantity >= 26 && lo.Quantity <= 35
			},
			Aggregate: discountedRevenue,
		},
		{
			ID:     "Q2.1",
			SQL:    `select sum(lo_revenue), d_year, p_brand1 from lineorder, date, part, supplier where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey and p_category = 'MFGR#12' and s_region = 'AMERICA' group by d_year, p_brand1 order by d_year, p_brand1`,
			Flight: 2, NeedsPart: true, NeedsSupp: true,
			PartFilter: func(p *Part) bool { return p.Category == "MFGR#12" },
			SuppFilter: func(s *Supplier) bool { return s.Region == "AMERICA" },
			GroupBy: func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string {
				return yearString(d.Year) + "|" + p.Brand1
			},
			GroupAppend: func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte {
				dst = append(dst, yearString(d.Year)...)
				dst = append(dst, '|')
				return append(dst, p.Brand1...)
			},
			Aggregate: revenue,
		},
		{
			ID:     "Q2.2",
			SQL:    `select sum(lo_revenue), d_year, p_brand1 from lineorder, date, part, supplier where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey and p_brand1 between 'MFGR#2221' and 'MFGR#2228' and s_region = 'ASIA' group by d_year, p_brand1 order by d_year, p_brand1`,
			Flight: 2, NeedsPart: true, NeedsSupp: true,
			PartFilter: func(p *Part) bool {
				return p.Brand1 >= "MFGR#2221" && p.Brand1 <= "MFGR#2228"
			},
			SuppFilter: func(s *Supplier) bool { return s.Region == "ASIA" },
			GroupBy: func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string {
				return yearString(d.Year) + "|" + p.Brand1
			},
			GroupAppend: func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte {
				dst = append(dst, yearString(d.Year)...)
				dst = append(dst, '|')
				return append(dst, p.Brand1...)
			},
			Aggregate: revenue,
		},
		{
			ID:     "Q2.3",
			SQL:    `select sum(lo_revenue), d_year, p_brand1 from lineorder, date, part, supplier where lo_orderdate = d_datekey and lo_partkey = p_partkey and lo_suppkey = s_suppkey and p_brand1 = 'MFGR#2221' and s_region = 'EUROPE' group by d_year, p_brand1 order by d_year, p_brand1`,
			Flight: 2, NeedsPart: true, NeedsSupp: true,
			PartFilter: func(p *Part) bool { return p.Brand1 == "MFGR#2221" },
			SuppFilter: func(s *Supplier) bool { return s.Region == "EUROPE" },
			GroupBy: func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string {
				return yearString(d.Year) + "|" + p.Brand1
			},
			GroupAppend: func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte {
				dst = append(dst, yearString(d.Year)...)
				dst = append(dst, '|')
				return append(dst, p.Brand1...)
			},
			Aggregate: revenue,
		},
		{
			ID:     "Q3.1",
			SQL:    `select c_nation, s_nation, d_year, sum(lo_revenue) as revenue from customer, lineorder, supplier, date where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and c_region = 'ASIA' and s_region = 'ASIA' and d_year >= 1992 and d_year <= 1997 group by c_nation, s_nation, d_year order by d_year asc, revenue desc`,
			Flight: 3, NeedsCust: true, NeedsSupp: true,
			CustFilter: func(c *Customer) bool { return c.Region == "ASIA" },
			SuppFilter: func(s *Supplier) bool { return s.Region == "ASIA" },
			DateFilter: func(d *Date) bool { return d.Year >= 1992 && d.Year <= 1997 },
			GroupBy: func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string {
				return c.Nation + "|" + s.Nation + "|" + yearString(d.Year)
			},
			GroupAppend: func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte {
				dst = append(dst, c.Nation...)
				dst = append(dst, '|')
				dst = append(dst, s.Nation...)
				dst = append(dst, '|')
				return append(dst, yearString(d.Year)...)
			},
			Aggregate: revenue,
			OrderBy:   byYearAscRevenueDesc,
		},
		{
			ID:     "Q3.2",
			SQL:    `select c_city, s_city, d_year, sum(lo_revenue) as revenue from customer, lineorder, supplier, date where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and c_nation = 'UNITED STATES' and s_nation = 'UNITED STATES' and d_year >= 1992 and d_year <= 1997 group by c_city, s_city, d_year order by d_year asc, revenue desc`,
			Flight: 3, NeedsCust: true, NeedsSupp: true,
			CustFilter: func(c *Customer) bool { return c.Nation == "UNITED STATES" },
			SuppFilter: func(s *Supplier) bool { return s.Nation == "UNITED STATES" },
			DateFilter: func(d *Date) bool { return d.Year >= 1992 && d.Year <= 1997 },
			GroupBy: func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string {
				return c.City + "|" + s.City + "|" + yearString(d.Year)
			},
			GroupAppend: func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte {
				dst = append(dst, c.City...)
				dst = append(dst, '|')
				dst = append(dst, s.City...)
				dst = append(dst, '|')
				return append(dst, yearString(d.Year)...)
			},
			Aggregate: revenue,
			OrderBy:   byYearAscRevenueDesc,
		},
		{
			ID:     "Q3.3",
			SQL:    `select c_city, s_city, d_year, sum(lo_revenue) as revenue from customer, lineorder, supplier, date where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and (c_city='UNITED KI1' or c_city='UNITED KI5') and (s_city='UNITED KI1' or s_city='UNITED KI5') and d_year >= 1992 and d_year <= 1997 group by c_city, s_city, d_year order by d_year asc, revenue desc`,
			Flight: 3, NeedsCust: true, NeedsSupp: true,
			CustFilter: func(c *Customer) bool { return c.City == "UNITED KI1" || c.City == "UNITED KI5" },
			SuppFilter: func(s *Supplier) bool { return s.City == "UNITED KI1" || s.City == "UNITED KI5" },
			DateFilter: func(d *Date) bool { return d.Year >= 1992 && d.Year <= 1997 },
			GroupBy: func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string {
				return c.City + "|" + s.City + "|" + yearString(d.Year)
			},
			GroupAppend: func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte {
				dst = append(dst, c.City...)
				dst = append(dst, '|')
				dst = append(dst, s.City...)
				dst = append(dst, '|')
				return append(dst, yearString(d.Year)...)
			},
			Aggregate: revenue,
			OrderBy:   byYearAscRevenueDesc,
		},
		{
			ID:     "Q3.4",
			SQL:    `select c_city, s_city, d_year, sum(lo_revenue) as revenue from customer, lineorder, supplier, date where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_orderdate = d_datekey and (c_city='UNITED KI1' or c_city='UNITED KI5') and (s_city='UNITED KI1' or s_city='UNITED KI5') and d_yearmonth = 'Dec1997' group by c_city, s_city, d_year order by d_year asc, revenue desc`,
			Flight: 3, NeedsCust: true, NeedsSupp: true,
			CustFilter: func(c *Customer) bool { return c.City == "UNITED KI1" || c.City == "UNITED KI5" },
			SuppFilter: func(s *Supplier) bool { return s.City == "UNITED KI1" || s.City == "UNITED KI5" },
			DateFilter: func(d *Date) bool { return d.YearMonth == "Dec1997" },
			GroupBy: func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string {
				return c.City + "|" + s.City + "|" + yearString(d.Year)
			},
			GroupAppend: func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte {
				dst = append(dst, c.City...)
				dst = append(dst, '|')
				dst = append(dst, s.City...)
				dst = append(dst, '|')
				return append(dst, yearString(d.Year)...)
			},
			Aggregate: revenue,
			OrderBy:   byYearAscRevenueDesc,
		},
		{
			ID:     "Q4.1",
			SQL:    `select d_year, c_nation, sum(lo_revenue - lo_supplycost) as profit from date, customer, supplier, part, lineorder where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_partkey = p_partkey and lo_orderdate = d_datekey and c_region = 'AMERICA' and s_region = 'AMERICA' and (p_mfgr = 'MFGR#1' or p_mfgr = 'MFGR#2') group by d_year, c_nation order by d_year, c_nation`,
			Flight: 4, NeedsCust: true, NeedsSupp: true, NeedsPart: true,
			CustFilter: func(c *Customer) bool { return c.Region == "AMERICA" },
			SuppFilter: func(s *Supplier) bool { return s.Region == "AMERICA" },
			PartFilter: func(p *Part) bool { return p.MFGR == "MFGR#1" || p.MFGR == "MFGR#2" },
			GroupBy: func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string {
				return yearString(d.Year) + "|" + c.Nation
			},
			GroupAppend: func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte {
				dst = append(dst, yearString(d.Year)...)
				dst = append(dst, '|')
				return append(dst, c.Nation...)
			},
			Aggregate: profit,
		},
		{
			ID:     "Q4.2",
			SQL:    `select d_year, s_nation, p_category, sum(lo_revenue - lo_supplycost) as profit from date, customer, supplier, part, lineorder where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_partkey = p_partkey and lo_orderdate = d_datekey and c_region = 'AMERICA' and s_region = 'AMERICA' and (d_year = 1997 or d_year = 1998) and (p_mfgr = 'MFGR#1' or p_mfgr = 'MFGR#2') group by d_year, s_nation, p_category order by d_year, s_nation, p_category`,
			Flight: 4, NeedsCust: true, NeedsSupp: true, NeedsPart: true,
			CustFilter: func(c *Customer) bool { return c.Region == "AMERICA" },
			SuppFilter: func(s *Supplier) bool { return s.Region == "AMERICA" },
			PartFilter: func(p *Part) bool { return p.MFGR == "MFGR#1" || p.MFGR == "MFGR#2" },
			DateFilter: func(d *Date) bool { return d.Year == 1997 || d.Year == 1998 },
			GroupBy: func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string {
				return yearString(d.Year) + "|" + s.Nation + "|" + p.Category
			},
			GroupAppend: func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte {
				dst = append(dst, yearString(d.Year)...)
				dst = append(dst, '|')
				dst = append(dst, s.Nation...)
				dst = append(dst, '|')
				return append(dst, p.Category...)
			},
			Aggregate: profit,
		},
		{
			ID:     "Q4.3",
			SQL:    `select d_year, s_city, p_brand1, sum(lo_revenue - lo_supplycost) as profit from date, customer, supplier, part, lineorder where lo_custkey = c_custkey and lo_suppkey = s_suppkey and lo_partkey = p_partkey and lo_orderdate = d_datekey and c_region = 'AMERICA' and s_nation = 'UNITED STATES' and (d_year = 1997 or d_year = 1998) and p_category = 'MFGR#14' group by d_year, s_city, p_brand1 order by d_year, s_city, p_brand1`,
			Flight: 4, NeedsCust: true, NeedsSupp: true, NeedsPart: true,
			CustFilter: func(c *Customer) bool { return c.Region == "AMERICA" },
			SuppFilter: func(s *Supplier) bool { return s.Nation == "UNITED STATES" },
			PartFilter: func(p *Part) bool { return p.Category == "MFGR#14" },
			DateFilter: func(d *Date) bool { return d.Year == 1997 || d.Year == 1998 },
			GroupBy: func(lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) string {
				return yearString(d.Year) + "|" + s.City + "|" + p.Brand1
			},
			GroupAppend: func(dst []byte, lo *Lineorder, d *Date, c *Customer, s *Supplier, p *Part) []byte {
				dst = append(dst, yearString(d.Year)...)
				dst = append(dst, '|')
				dst = append(dst, s.City...)
				dst = append(dst, '|')
				return append(dst, p.Brand1...)
			},
			Aggregate: profit,
		},
	}
	return qs
}

// QueryByID returns the query with the given ID ("Q2.1").
func QueryByID(id string) (Query, error) {
	for _, q := range Queries() {
		if q.ID == id {
			return q, nil
		}
	}
	return Query{}, fmt.Errorf("ssb: no query %q", id)
}

// Reference executes the query naively over the decoded structs — the
// correctness oracle both engines are tested against.
func Reference(d *Data, q Query) Result {
	res := Result{}
	for i := range d.Lineorder {
		lo := &d.Lineorder[i]
		if q.LOFilter != nil && !q.LOFilter(lo) {
			continue
		}
		date := d.DateByKey(lo.OrderDate)
		if q.DateFilter != nil && !q.DateFilter(date) {
			continue
		}
		var c *Customer
		if q.NeedsCust {
			c = d.CustomerByKey(lo.CustKey)
			if q.CustFilter != nil && !q.CustFilter(c) {
				continue
			}
		}
		var s *Supplier
		if q.NeedsSupp {
			s = d.SupplierByKey(lo.SuppKey)
			if q.SuppFilter != nil && !q.SuppFilter(s) {
				continue
			}
		}
		var p *Part
		if q.NeedsPart {
			p = d.PartByKey(lo.PartKey)
			if q.PartFilter != nil && !q.PartFilter(p) {
				continue
			}
		}
		key := ""
		if q.GroupBy != nil {
			key = q.GroupBy(lo, date, c, s, p)
		}
		res[key] += q.Aggregate(lo)
	}
	return res
}

// Selectivities reports, for planning and traffic scaling, the fraction of
// each dimension passing the query's filter.
type Selectivities struct {
	Date, Cust, Supp, Part float64
}

// Measure computes the query's dimension selectivities on the data set.
func Measure(d *Data, q Query) Selectivities {
	return Selectivities{
		Date: kept(d.Date, q.DateFilter),
		Cust: kept(d.Customer, q.CustFilter),
		Supp: kept(d.Supplier, q.SuppFilter),
		Part: kept(d.Part, q.PartFilter),
	}
}

// kept is the fraction of rows filter keeps; a nil filter keeps them all.
func kept[T any](rows []T, filter func(*T) bool) float64 {
	if filter == nil {
		return 1
	}
	n := 0
	for i := range rows {
		if filter(&rows[i]) {
			n++
		}
	}
	return float64(n) / float64(len(rows))
}
