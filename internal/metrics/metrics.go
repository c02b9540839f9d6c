// Package metrics is the simulation's observability layer: a lightweight,
// allocation-conscious counter/gauge registry that the machine models thread
// their per-mechanism statistics through — the software analogue of the
// hardware counters (iMC, UPI, VTune) the paper's analysis is built on.
//
// Counters accumulate (bytes moved, lines flushed, UPI crossings); gauges
// hold level-style values (peak utilization, hit rates). Handles returned by
// Counter/Gauge are stable and safe for concurrent use: the hot path of the
// simulator resolves its handles once and then performs lock-free atomic
// adds, so a Run with metrics enabled allocates nothing per solver step.
package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically accumulating float64 value.
type Counter struct {
	bits atomic.Uint64
}

// Add accumulates v (negative deltas are ignored; counters only grow).
func (c *Counter) Add(v float64) {
	if c == nil || v <= 0 {
		return
	}
	for {
		old := c.bits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if c.bits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the accumulated total.
func (c *Counter) Value() float64 {
	if c == nil {
		return 0
	}
	return math.Float64frombits(c.bits.Load())
}

// Gauge is a level-style value: set, or raised to a running maximum.
type Gauge struct {
	bits atomic.Uint64
}

// Set stores v.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// SetMax raises the gauge to v if v exceeds the current value.
func (g *Gauge) SetMax(v float64) {
	if g == nil {
		return
	}
	for {
		old := g.bits.Load()
		if v <= math.Float64frombits(old) {
			return
		}
		if g.bits.CompareAndSwap(old, math.Float64bits(v)) {
			return
		}
	}
}

// Value returns the current level.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a named collection of counters and gauges. The zero value is
// an empty registry, as New returns. A nil *Registry is a valid no-op sink:
// Counter and Gauge return nil handles whose methods do nothing, so model
// code can record unconditionally.
type Registry struct {
	mu         sync.Mutex
	counters   map[string]*Counter
	gauges     map[string]*Gauge
	histograms map[string]*Histogram

	// ix is the one index bound wholesale (see Bind): the counter named
	// ix.counters.names[i] is ixCounters[ix.counters.slot[i]], likewise for
	// gauges. Its names never also appear in the maps above.
	ix         *Index
	ixCounters []Counter
	ixGauges   []Gauge
}

// New creates an empty registry. Its maps are made on first use, so a
// registry that only binds one Index never makes them.
func New() *Registry { return &Registry{} }

// Counter returns the named counter, creating it on first use.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.counter(name)
}

func (r *Registry) counter(name string) *Counter {
	if r.ix != nil {
		if i, ok := r.ix.counters.byName[name]; ok {
			return &r.ixCounters[i]
		}
	}
	return lookup(&r.counters, name)
}

// Gauge returns the named gauge, creating it on first use.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gauge(name)
}

func (r *Registry) gauge(name string) *Gauge {
	if r.ix != nil {
		if i, ok := r.ix.gauges.byName[name]; ok {
			return &r.ixGauges[i]
		}
	}
	return lookup(&r.gauges, name)
}

// lookup returns the handle registered under name in *m, creating the map
// and the handle as needed.
func lookup[H any](m *map[string]*H, name string) *H {
	h, ok := (*m)[name]
	if !ok {
		if *m == nil {
			*m = make(map[string]*H)
		}
		h = new(H)
		(*m)[name] = h
	}
	return h
}

// Index is a frozen, ordered list of counter and gauge names with a slot
// per distinct name. Building one costs a map insertion per name; binding
// it to an empty registry costs one slab per kind and no insertions, which
// is what makes many short-lived registries of one shape (a private
// registry per fresh simulated machine) cheap. An empty name is a hole: it
// binds to a nil handle.
type Index struct{ counters, gauges nameSlots }

// nameSlots is one kind's names in order with the slot of each (-1 for a
// hole), and the slot of each distinct name.
type nameSlots struct {
	names  []string
	slot   []int
	byName map[string]int
}

// NewIndex freezes the name lists. A name repeated within a list shares one
// slot.
func NewIndex(counterNames, gaugeNames []string) *Index {
	return &Index{newNameSlots(counterNames), newNameSlots(gaugeNames)}
}

func newNameSlots(names []string) nameSlots {
	ns := nameSlots{names: names, slot: make([]int, len(names)), byName: make(map[string]int, len(names))}
	for i, name := range names {
		if name == "" {
			ns.slot[i] = -1
			continue
		}
		s, ok := ns.byName[name]
		if !ok {
			s = len(ns.byName)
			ns.byName[name] = s
		}
		ns.slot[i] = s
	}
	return ns
}

// fromSlab points each of out at its name's slot in slab.
func fromSlab[H any](ns nameSlots, slab []H, out []*H) {
	for i, s := range ns.slot {
		if s >= 0 {
			out[i] = &slab[s]
		}
	}
}

// Bind resolves every name of the index under one lock acquisition,
// returning handles parallel to its name lists (nil at holes). A name the
// registry already holds yields its existing handle, exactly as Counter and
// Gauge would, so registries shared by several recorders keep one value per
// name. An empty registry, or one already bound to this index, binds
// without touching its maps. A nil registry yields nil handles.
func (r *Registry) Bind(ix *Index) ([]*Counter, []*Gauge) {
	cs := make([]*Counter, len(ix.counters.names))
	gs := make([]*Gauge, len(ix.gauges.names))
	if r == nil {
		return cs, gs
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.ix == nil && len(r.counters) == 0 && len(r.gauges) == 0 {
		r.ix = ix
		r.ixCounters = make([]Counter, len(ix.counters.byName))
		r.ixGauges = make([]Gauge, len(ix.gauges.byName))
	}
	if r.ix == ix {
		fromSlab(ix.counters, r.ixCounters, cs)
		fromSlab(ix.gauges, r.ixGauges, gs)
		return cs, gs
	}
	for i, name := range ix.counters.names {
		if name != "" {
			cs[i] = r.counter(name)
		}
	}
	for i, name := range ix.gauges.names {
		if name != "" {
			gs[i] = r.gauge(name)
		}
	}
	return cs, gs
}

// Sample is one named value in a snapshot.
type Sample struct {
	Name  string
	Value float64
}

// Snapshot is a point-in-time copy of a registry, sorted by name, suitable
// for rendering, comparison, and aggregation.
type Snapshot struct {
	Counters   []Sample
	Gauges     []Sample
	Histograms []HistogramSample
}

// Snapshot copies the registry's current values. A nil registry yields an
// empty snapshot.
func (r *Registry) Snapshot() Snapshot {
	var s Snapshot
	if r == nil {
		return s
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for name, c := range r.counters {
		s.Counters = append(s.Counters, Sample{name, c.Value()})
	}
	for name, g := range r.gauges {
		s.Gauges = append(s.Gauges, Sample{name, g.Value()})
	}
	if r.ix != nil {
		for name, i := range r.ix.counters.byName {
			s.Counters = append(s.Counters, Sample{name, r.ixCounters[i].Value()})
		}
		for name, i := range r.ix.gauges.byName {
			s.Gauges = append(s.Gauges, Sample{name, r.ixGauges[i].Value()})
		}
	}
	for name, h := range r.histograms {
		s.Histograms = append(s.Histograms, h.sample(name))
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return s
}

// Get returns a counter or gauge value from the snapshot by name.
func (s Snapshot) Get(name string) (float64, bool) {
	for _, lst := range [][]Sample{s.Counters, s.Gauges} {
		i := sort.Search(len(lst), func(i int) bool { return lst[i].Name >= name })
		if i < len(lst) && lst[i].Name == name {
			return lst[i].Value, true
		}
	}
	return 0, false
}

// Empty reports whether the snapshot holds no samples.
func (s Snapshot) Empty() bool {
	return len(s.Counters) == 0 && len(s.Gauges) == 0 && len(s.Histograms) == 0
}

// Fprint renders the snapshot as a stable, aligned text report.
func (s Snapshot) Fprint(w io.Writer) {
	width := 0
	for _, lst := range [][]Sample{s.Counters, s.Gauges} {
		for _, sm := range lst {
			if len(sm.Name) > width {
				width = len(sm.Name)
			}
		}
	}
	if len(s.Counters) > 0 {
		fmt.Fprintln(w, "counters:")
		for _, sm := range s.Counters {
			fmt.Fprintf(w, "  %-*s %s\n", width, sm.Name, formatValue(sm.Value))
		}
	}
	if len(s.Gauges) > 0 {
		fmt.Fprintln(w, "gauges:")
		for _, sm := range s.Gauges {
			fmt.Fprintf(w, "  %-*s %s\n", width, sm.Name, formatValue(sm.Value))
		}
	}
	fprintHistograms(w, s.Histograms)
}

// formatValue prints counts as integers and everything else compactly.
func formatValue(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.6g", v)
}

// MarshalJSON renders the snapshot as two name->value objects. Object keys
// are emitted in sorted order (encoding/json sorts map keys), so the output
// is byte-stable for a given snapshot.
func (s Snapshot) MarshalJSON() ([]byte, error) {
	obj := struct {
		Counters   map[string]float64       `json:"counters"`
		Gauges     map[string]float64       `json:"gauges"`
		Histograms map[string]histogramJSON `json:"histograms,omitempty"`
	}{Counters: make(map[string]float64, len(s.Counters)), Gauges: make(map[string]float64, len(s.Gauges))}
	for _, sm := range s.Counters {
		obj.Counters[sm.Name] = sm.Value
	}
	for _, sm := range s.Gauges {
		obj.Gauges[sm.Name] = sm.Value
	}
	if len(s.Histograms) > 0 {
		obj.Histograms = make(map[string]histogramJSON, len(s.Histograms))
		for _, h := range s.Histograms {
			obj.Histograms[h.Name] = histogramJSON{Bounds: h.Bounds, Counts: h.Counts, Sum: h.Sum}
		}
	}
	return json.Marshal(obj)
}

// histogramJSON is the wire form of one histogram in a snapshot; the name is
// the enclosing object key.
type histogramJSON struct {
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
}

// UnmarshalJSON restores a snapshot written by MarshalJSON.
func (s *Snapshot) UnmarshalJSON(data []byte) error {
	var obj struct {
		Counters   map[string]float64       `json:"counters"`
		Gauges     map[string]float64       `json:"gauges"`
		Histograms map[string]histogramJSON `json:"histograms"`
	}
	if err := json.Unmarshal(data, &obj); err != nil {
		return err
	}
	*s = Snapshot{}
	for name, v := range obj.Counters {
		s.Counters = append(s.Counters, Sample{name, v})
	}
	for name, v := range obj.Gauges {
		s.Gauges = append(s.Gauges, Sample{name, v})
	}
	for name, h := range obj.Histograms {
		s.Histograms = append(s.Histograms, HistogramSample{
			Name: name, Bounds: h.Bounds, Counts: h.Counts, Sum: h.Sum})
	}
	sort.Slice(s.Counters, func(i, j int) bool { return s.Counters[i].Name < s.Counters[j].Name })
	sort.Slice(s.Gauges, func(i, j int) bool { return s.Gauges[i].Name < s.Gauges[j].Name })
	sort.Slice(s.Histograms, func(i, j int) bool { return s.Histograms[i].Name < s.Histograms[j].Name })
	return nil
}

// WriteJSON writes the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// Merge combines two snapshots: counters are summed, gauges take the
// maximum. This is how the experiment runner aggregates the per-experiment
// snapshots into a suite-wide view (sums of traffic, worst-case peaks).
func Merge(a, b Snapshot) Snapshot {
	return Snapshot{
		Counters:   mergeSamples(a.Counters, b.Counters, func(x, y float64) float64 { return x + y }),
		Gauges:     mergeSamples(a.Gauges, b.Gauges, math.Max),
		Histograms: mergeHistograms(a.Histograms, b.Histograms),
	}
}

func mergeSamples(a, b []Sample, combine func(x, y float64) float64) []Sample {
	out := make([]Sample, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i].Name < b[j].Name:
			out = append(out, a[i])
			i++
		case a[i].Name > b[j].Name:
			out = append(out, b[j])
			j++
		default:
			out = append(out, Sample{a[i].Name, combine(a[i].Value, b[j].Value)})
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}
