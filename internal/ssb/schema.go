// Package ssb implements the Star Schema Benchmark (O'Neil et al., TPCTC
// 2009) used in the paper's Section 6: the star schema (one lineorder fact
// table and four dimension tables), a deterministic data generator with the
// benchmark's scale-factor rules, and the 13 queries in 4 query flights as
// executable specifications shared by both engines.
package ssb

import (
	"fmt"
	"sync"
)

// Lineorder is the fact table row. Monetary values are in cents; discount
// and tax are integer percentages, as in the SSB specification.
type Lineorder struct {
	OrderKey      uint64
	LineNumber    uint8
	CustKey       uint32
	PartKey       uint32
	SuppKey       uint32
	OrderDate     uint32 // yyyymmdd, foreign key into Date
	OrdPriority   uint8  // 0..4
	ShipPriority  uint8
	Quantity      uint8  // 1..50
	ExtendedPrice uint32 // cents
	OrdTotalPrice uint32
	Discount      uint8 // 0..10 (%)
	Revenue       uint32
	SupplyCost    uint32
	Tax           uint8 // 0..8 (%)
	CommitDate    uint32
	ShipMode      uint8 // 0..6
}

// TupleBytes is the aligned on-storage footprint of one lineorder tuple in
// the handcrafted engine: "we align all fields to 128 Byte, which is
// slightly larger than the size of a tuple (<10%)" (Section 6.2).
const TupleBytes = 128

// Customer dimension row.
type Customer struct {
	CustKey    uint32
	Name       string
	Address    string
	City       string // nation prefix + digit, e.g. "UNITED KI1"
	Nation     string
	Region     string
	Phone      string
	MktSegment string
}

// Supplier dimension row.
type Supplier struct {
	SuppKey uint32
	Name    string
	Address string
	City    string
	Nation  string
	Region  string
	Phone   string
}

// Part dimension row.
type Part struct {
	PartKey   uint32
	Name      string
	MFGR      string // "MFGR#1".."MFGR#5"
	Category  string // "MFGR#11".."MFGR#55"
	Brand1    string // category + 1..40, e.g. "MFGR#1221"
	Color     string
	Type      string
	Size      uint8 // 1..50
	Container string
}

// Date dimension row (one per calendar day, 7 years: 1992-01-01 to
// 1998-12-31 — 2557 days including the 1992 and 1996 leap days).
type Date struct {
	DateKey         uint32 // yyyymmdd
	Date            string
	DayOfWeek       string
	Month           string
	Year            uint16
	YearMonthNum    uint32 // yyyymm
	YearMonth       string // "Jan1994"
	DayNumInWeek    uint8  // 1..7
	DayNumInMonth   uint8
	DayNumInYear    uint16
	MonthNumInYear  uint8
	WeekNumInYear   uint8
	SellingSeason   string
	LastDayInWeekFl bool
	HolidayFl       bool
	WeekdayFl       bool
}

// Data is one generated SSB database.
type Data struct {
	SF        float64
	Lineorder []Lineorder
	Customer  []Customer
	Supplier  []Supplier
	Part      []Part
	Date      []Date

	// dateIdx maps each DateSlot to its row in Date, -1 for slots that are
	// no calendar day. Scan loops resolve dates per fact row, so the lookup
	// is a bounds check and an array load rather than a map probe.
	dateIdx []int32

	// memo caches query-execution artifacts that are pure functions of the
	// generated data (encoded fact tables, per-query fact passes). The
	// engines re-execute every query on every machine configuration; the
	// answers cannot differ, only the simulated traffic charged for them.
	memoMu sync.Mutex
	memo   map[string]*memoEntry
}

// memoEntry is one memoized value.
type memoEntry struct {
	done sync.WaitGroup // released when the build returns
	val  any
	ok   bool // the build returned normally
}

// Memo returns the value cached under key, computing it with build on first
// use. Each key has at most one build in flight: concurrent callers of that
// key wait for it and share its value, while other keys build in parallel
// (a build may itself call Memo for a different key). A build that panics
// caches nothing; its waiters wake and the next caller retries. build must
// be a pure function of the (immutable) data set, and callers must not
// modify the returned value.
func (d *Data) Memo(key string, build func() any) any {
	for {
		d.memoMu.Lock()
		e, ok := d.memo[key]
		if !ok {
			if d.memo == nil {
				d.memo = make(map[string]*memoEntry)
			}
			e = &memoEntry{}
			e.done.Add(1)
			d.memo[key] = e
			d.memoMu.Unlock()
			d.fill(key, e, build)
			return e.val
		}
		d.memoMu.Unlock()
		if e.done.Wait(); e.ok {
			return e.val
		}
	}
}

// fill runs build for e, dropping the entry again if build panics.
func (d *Data) fill(key string, e *memoEntry, build func() any) {
	defer func() {
		if !e.ok {
			d.memoMu.Lock()
			delete(d.memo, key)
			d.memoMu.Unlock()
		}
		e.done.Done()
	}()
	e.val = build()
	e.ok = true
}

// DateSlots is the size of the dense calendar-slot space of DateSlot.
const DateSlots = 7 * 372

// DateSlot maps a yyyymmdd key to its dense calendar slot
// (y-1992)*372 + (m-1)*31 + (d-1), or -1 for keys outside 1992..1998.
func DateSlot(key uint32) int {
	y, m, dd := key/10000, key/100%100, key%100
	if y < 1992 || y > 1998 || m < 1 || m > 12 || dd < 1 || dd > 31 {
		return -1
	}
	return int((y-1992)*372 + (m-1)*31 + (dd - 1))
}

// DateByKey returns the date row for a yyyymmdd key, nil if there is none.
func (d *Data) DateByKey(key uint32) *Date {
	if s := DateSlot(key); s >= 0 {
		if ix := d.dateIdx[s]; ix >= 0 {
			return &d.Date[ix]
		}
	}
	return nil
}

// CustomerByKey returns the customer with the given (1-based, dense) key.
func (d *Data) CustomerByKey(key uint32) *Customer {
	if key == 0 || int(key) > len(d.Customer) {
		return nil
	}
	return &d.Customer[key-1]
}

// SupplierByKey returns the supplier with the given dense key.
func (d *Data) SupplierByKey(key uint32) *Supplier {
	if key == 0 || int(key) > len(d.Supplier) {
		return nil
	}
	return &d.Supplier[key-1]
}

// PartByKey returns the part with the given dense key.
func (d *Data) PartByKey(key uint32) *Part {
	if key == 0 || int(key) > len(d.Part) {
		return nil
	}
	return &d.Part[key-1]
}

// Rows returns the row count of the named table (TableNames spelling), or 0
// for an unknown name.
func (d *Data) Rows(table string) int {
	switch table {
	case "lineorder":
		return len(d.Lineorder)
	case "customer":
		return len(d.Customer)
	case "supplier":
		return len(d.Supplier)
	case "part":
		return len(d.Part)
	case "date":
		return len(d.Date)
	}
	return 0
}

// FactBytes returns the handcrafted engine's storage footprint of the fact
// table (TupleBytes per row).
func (d *Data) FactBytes() int64 { return int64(len(d.Lineorder)) * TupleBytes }

func (d *Data) String() string {
	return fmt.Sprintf("ssb sf=%g: lineorder=%d customer=%d supplier=%d part=%d date=%d",
		d.SF, len(d.Lineorder), len(d.Customer), len(d.Supplier), len(d.Part), len(d.Date))
}
