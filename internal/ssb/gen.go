package ssb

import (
	"fmt"
	"strconv"
	"time"
)

// The 25 SSB nations, five per region, in the specification's grouping.
var nationsByRegion = map[string][]string{
	"AFRICA":      {"ALGERIA", "ETHIOPIA", "KENYA", "MOROCCO", "MOZAMBIQUE"},
	"AMERICA":     {"ARGENTINA", "BRAZIL", "CANADA", "PERU", "UNITED STATES"},
	"ASIA":        {"CHINA", "INDIA", "INDONESIA", "JAPAN", "VIETNAM"},
	"EUROPE":      {"FRANCE", "GERMANY", "ROMANIA", "RUSSIA", "UNITED KINGDOM"},
	"MIDDLE EAST": {"EGYPT", "IRAN", "IRAQ", "JORDAN", "SAUDI ARABIA"},
}

// Regions in a fixed order so nation indices are deterministic.
var regions = []string{"AFRICA", "AMERICA", "ASIA", "EUROPE", "MIDDLE EAST"}

// nations and nationRegion are flattened, index 0..24.
var nations []string
var nationRegion []string

func init() {
	for _, r := range regions {
		for _, n := range nationsByRegion[r] {
			nations = append(nations, n)
			nationRegion = append(nationRegion, r)
		}
	}
}

var mktSegments = []string{"AUTOMOBILE", "BUILDING", "FURNITURE", "HOUSEHOLD", "MACHINERY"}
var colors = []string{"almond", "antique", "aquamarine", "azure", "beige", "bisque", "black",
	"blanched", "blue", "blush", "brown", "burlywood", "burnished", "chartreuse", "chiffon",
	"chocolate", "coral", "cornflower", "cornsilk", "cream", "cyan", "dark", "deep", "dim"}
var containers = []string{"SM CASE", "SM BOX", "SM PACK", "SM PKG", "MED BAG", "MED BOX",
	"MED PKG", "MED PACK", "LG CASE", "LG BOX", "LG PACK", "LG PKG"}
var shipModes = []string{"REG AIR", "AIR", "RAIL", "SHIP", "TRUCK", "MAIL", "FOB"}
var types = []string{"STANDARD", "SMALL", "MEDIUM", "LARGE", "ECONOMY", "PROMO"}
var weekdays = []string{"Monday", "Tuesday", "Wednesday", "Thursday", "Friday", "Saturday", "Sunday"}
var monthNames = []string{"January", "February", "March", "April", "May", "June",
	"July", "August", "September", "October", "November", "December"}

// ShipModeName maps a Lineorder.ShipMode code to its string.
func ShipModeName(code uint8) string { return shipModes[int(code)%len(shipModes)] }

// splitmix64 is the deterministic generator used for every random choice:
// each (stream, index) pair yields the same value on every run and platform.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// rng is a per-row deterministic source.
type rng struct{ state uint64 }

func newRNG(stream, row uint64) rng {
	return rng{state: splitmix64(stream*0x51cc2ad3fe11f5ab + row)}
}

func (r *rng) next() uint64 {
	r.state = splitmix64(r.state)
	return r.state
}

// intn returns a value in [0, n).
func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

// rangeInt returns a value in [lo, hi] inclusive.
func (r *rng) rangeInt(lo, hi int) int { return lo + r.intn(hi-lo+1) }

// Cardinalities per the SSB specification (scaled linearly below sf 1 so
// small test databases keep the schema's proportions).
func lineorderCount(sf float64) int { return int(6_000_000 * sf) }
func customerCount(sf float64) int  { return maxInt(int(30_000*sf), 100) }
func supplierCount(sf float64) int  { return maxInt(int(2_000*sf), 40) }

// partCount follows the spec's 200,000 * (1 + floor(log2(sf))) for sf >= 1.
func partCount(sf float64) int {
	if sf >= 1 {
		mult := 1
		for s := 2.0; s <= sf; s *= 2 {
			mult++
		}
		return 200_000 * mult
	}
	return maxInt(int(200_000*sf), 400)
}

// dateRows is the calendar 1992-01-01..1998-12-31 (two leap years).
const dateRows = 7*365 + 2

// RowsAt returns how many rows Generate produces for the named table
// (TableNames spelling) at scale factor sf, or 0 for an unknown name.
func RowsAt(table string, sf float64) int {
	switch table {
	case "lineorder":
		return lineorderCount(sf)
	case "customer":
		return customerCount(sf)
	case "supplier":
		return supplierCount(sf)
	case "part":
		return partCount(sf)
	case "date":
		return dateRows
	}
	return 0
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// Generate builds a deterministic SSB database at the given scale factor.
// sf 1 produces 6 million lineorder rows; the paper uses sf 50 (Hyrise) and
// sf 100 (handcrafted, 600 million rows in ~70 GB).
func Generate(sf float64) (*Data, error) {
	if sf <= 0 {
		return nil, fmt.Errorf("ssb: scale factor must be positive, got %g", sf)
	}
	d := &Data{SF: sf}
	d.Date = genDates()
	d.dateIdx = make([]int32, DateSlots)
	for i := range d.dateIdx {
		d.dateIdx[i] = -1
	}
	for i := range d.Date {
		d.dateIdx[DateSlot(d.Date[i].DateKey)] = int32(i)
	}
	d.Customer = genCustomers(customerCount(sf))
	d.Supplier = genSuppliers(supplierCount(sf))
	d.Part = genParts(partCount(sf))
	d.Lineorder = genLineorders(d, lineorderCount(sf))
	return d, nil
}

// MustGenerate panics on invalid scale factors.
func MustGenerate(sf float64) *Data {
	d, err := Generate(sf)
	if err != nil {
		panic(err)
	}
	return d
}

func genDates() []Date {
	start := time.Date(1992, 1, 1, 0, 0, 0, 0, time.UTC)
	end := time.Date(1998, 12, 31, 0, 0, 0, 0, time.UTC)
	var out []Date
	for t := start; !t.After(end); t = t.AddDate(0, 0, 1) {
		y, m, day := t.Date()
		doy := t.YearDay()
		dow := int(t.Weekday()) // Sunday = 0
		// SSB numbers days 1..7 starting Sunday.
		season := "Winter"
		switch {
		case m >= 3 && m <= 5:
			season = "Spring"
		case m >= 6 && m <= 8:
			season = "Summer"
		case m >= 9 && m <= 11:
			season = "Fall"
		}
		if m == 12 {
			season = "Christmas"
		}
		key := uint32(y*10000 + int(m)*100 + day)
		out = append(out, Date{
			DateKey:         key,
			Date:            monthNames[m-1] + " " + strconv.Itoa(day) + ", " + strconv.Itoa(y),
			DayOfWeek:       weekdays[(dow+6)%7],
			Month:           monthNames[m-1],
			Year:            uint16(y),
			YearMonthNum:    uint32(y*100 + int(m)),
			YearMonth:       monthNames[m-1][:3] + strconv.Itoa(y),
			DayNumInWeek:    uint8(dow + 1),
			DayNumInMonth:   uint8(day),
			DayNumInYear:    uint16(doy),
			MonthNumInYear:  uint8(m),
			WeekNumInYear:   uint8((doy-1)/7 + 1),
			SellingSeason:   season,
			LastDayInWeekFl: dow == 6,
			HolidayFl:       (doy % 30) == 1,
			WeekdayFl:       dow >= 1 && dow <= 5,
		})
	}
	return out
}

// The generator's string domains are tiny (250 cities, 5 manufacturers, 25
// categories, 1000 brands, 6 types), so they are interned once — built with
// the same formatting the per-row code used, so the bytes are identical —
// and the per-row cost is an index instead of an allocation. This init runs
// after the one above (source order), which fills nations.
var (
	cityNames     [250]string  // nationIdx*10 + digit
	mfgrNames     [6]string    // "MFGR#1".."MFGR#5"
	categoryNames [6][6]string // "MFGR#11".."MFGR#55"
	brandNames    [6][6][41]string
	typesBrushed  []string
)

func init() {
	for nat := 0; nat < 25; nat++ {
		n := nations[nat]
		if len(n) > 9 {
			n = n[:9]
		}
		for len(n) < 9 {
			n += " "
		}
		for digit := 0; digit < 10; digit++ {
			cityNames[nat*10+digit] = fmt.Sprintf("%s%d", n, digit)
		}
	}
	for mfgr := 1; mfgr <= 5; mfgr++ {
		mfgrNames[mfgr] = fmt.Sprintf("MFGR#%d", mfgr)
		for cat := 1; cat <= 5; cat++ {
			categoryNames[mfgr][cat] = fmt.Sprintf("MFGR#%d%d", mfgr, cat)
			for brand := 1; brand <= 40; brand++ {
				brandNames[mfgr][cat][brand] = fmt.Sprintf("MFGR#%d%d%02d", mfgr, cat, brand)
			}
		}
	}
	typesBrushed = make([]string, len(types))
	for i, t := range types {
		typesBrushed[i] = t + " BRUSHED"
	}
}

// cityOf returns the SSB city string: the nation name truncated or padded
// to nine characters plus a digit 0-9 ("UNITED KI1").
func cityOf(nationIdx, digit int) string {
	return cityNames[nationIdx*10+digit]
}

// appendPadded appends v zero-padded to exactly width digits (v < 10^width),
// matching fmt's %0*d for non-negative values.
func appendPadded(dst []byte, v, width int) []byte {
	var b [20]byte
	for j := width - 1; j >= 0; j-- {
		b[j] = byte('0' + v%10)
		v /= 10
	}
	return append(dst, b[:width]...)
}

// seqName renders prefix + %09d in one allocation ("Customer#000000001").
func seqName(prefix string, i int) string {
	if i < 0 || i > 999_999_999 {
		return fmt.Sprintf("%s%09d", prefix, i)
	}
	var b [32]byte
	buf := append(b[:0], prefix...)
	buf = appendPadded(buf, i, 9)
	return string(buf)
}

// addrOf renders "addr-%d" in one allocation.
func addrOf(v uint64) string {
	var b [32]byte
	buf := append(b[:0], "addr-"...)
	buf = strconv.AppendUint(buf, v, 10)
	return string(buf)
}

// phoneOf renders "%02d-%03d-%03d-%04d" in one allocation.
func phoneOf(a, b3, c, d4 int) string {
	var b [16]byte
	buf := appendPadded(b[:0], a, 2)
	buf = append(buf, '-')
	buf = appendPadded(buf, b3, 3)
	buf = append(buf, '-')
	buf = appendPadded(buf, c, 3)
	buf = append(buf, '-')
	buf = appendPadded(buf, d4, 4)
	return string(buf)
}

func genCustomers(n int) []Customer {
	out := make([]Customer, n)
	for i := range out {
		r := newRNG(1, uint64(i))
		nat := r.intn(25)
		out[i] = Customer{
			CustKey:    uint32(i + 1),
			Name:       seqName("Customer#", i+1),
			Address:    addrOf(r.next() % 1_000_000),
			City:       cityOf(nat, r.intn(10)),
			Nation:     nations[nat],
			Region:     nationRegion[nat],
			Phone:      phoneOf(10+nat, r.intn(1000), r.intn(1000), r.intn(10000)),
			MktSegment: mktSegments[r.intn(len(mktSegments))],
		}
	}
	return out
}

func genSuppliers(n int) []Supplier {
	out := make([]Supplier, n)
	for i := range out {
		r := newRNG(2, uint64(i))
		nat := r.intn(25)
		out[i] = Supplier{
			SuppKey: uint32(i + 1),
			Name:    seqName("Supplier#", i+1),
			Address: addrOf(r.next() % 1_000_000),
			City:    cityOf(nat, r.intn(10)),
			Nation:  nations[nat],
			Region:  nationRegion[nat],
			Phone:   phoneOf(10+nat, r.intn(1000), r.intn(1000), r.intn(10000)),
		}
	}
	return out
}

func genParts(n int) []Part {
	out := make([]Part, n)
	for i := range out {
		r := newRNG(3, uint64(i))
		mfgr := r.rangeInt(1, 5)
		cat := r.rangeInt(1, 5)
		brand := r.rangeInt(1, 40)
		out[i] = Part{
			PartKey:   uint32(i + 1),
			Name:      "part-" + strconv.Itoa(i+1),
			MFGR:      mfgrNames[mfgr],
			Category:  categoryNames[mfgr][cat],
			Brand1:    brandNames[mfgr][cat][brand],
			Color:     colors[r.intn(len(colors))],
			Type:      typesBrushed[r.intn(len(types))],
			Size:      uint8(r.rangeInt(1, 50)),
			Container: containers[r.intn(len(containers))],
		}
	}
	return out
}

func genLineorders(d *Data, n int) []Lineorder {
	out := make([]Lineorder, n)
	nDates := len(d.Date)
	for i := range out {
		r := newRNG(4, uint64(i))
		quantity := uint8(r.rangeInt(1, 50))
		extended := uint32(r.rangeInt(90_000, 10_494_950)) // cents, ~$900-$104,949
		discount := uint8(r.rangeInt(0, 10))
		revenue := uint32(uint64(extended) * uint64(100-discount) / 100)
		orderDateIdx := r.intn(nDates)
		commitIdx := orderDateIdx + r.rangeInt(30, 90)
		if commitIdx >= nDates {
			commitIdx = nDates - 1
		}
		out[i] = Lineorder{
			OrderKey:      uint64(i/4 + 1), // ~4 lines per order
			LineNumber:    uint8(i%4 + 1),
			CustKey:       uint32(r.intn(len(d.Customer)) + 1),
			PartKey:       uint32(r.intn(len(d.Part)) + 1),
			SuppKey:       uint32(r.intn(len(d.Supplier)) + 1),
			OrderDate:     d.Date[orderDateIdx].DateKey,
			OrdPriority:   uint8(r.intn(5)),
			ShipPriority:  0,
			Quantity:      quantity,
			ExtendedPrice: extended,
			OrdTotalPrice: extended * uint32(r.rangeInt(1, 7)),
			Discount:      discount,
			Revenue:       revenue,
			SupplyCost:    uint32(6 * int(extended) / 10),
			Tax:           uint8(r.rangeInt(0, 8)),
			CommitDate:    d.Date[commitIdx].DateKey,
			ShipMode:      uint8(r.intn(len(shipModes))),
		}
	}
	return out
}
