package metrics

import (
	"fmt"
	"io"
	"math"
	"sort"
	"sync/atomic"
)

// Histogram is a fixed-bucket distribution: observations land in the first
// bucket whose upper bound is >= the value, with an implicit +Inf bucket at
// the end. Like Counter, the hot path is lock-free — pmemd observes request
// durations and queue waits on every request without allocation.
type Histogram struct {
	bounds  []float64 // sorted upper bounds, immutable after creation
	counts  []atomic.Uint64
	sumBits atomic.Uint64
}

func newHistogram(bounds []float64) *Histogram {
	bs := append([]float64(nil), bounds...)
	sort.Float64s(bs)
	return &Histogram{bounds: bs, counts: make([]atomic.Uint64, len(bs)+1)}
}

// Observe records one value. NaN observations are dropped.
func (h *Histogram) Observe(v float64) {
	if h == nil || math.IsNaN(v) {
		return
	}
	i := sort.SearchFloat64s(h.bounds, v)
	h.counts[i].Add(1)
	for {
		old := h.sumBits.Load()
		nw := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, nw) {
			return
		}
	}
}

// Count returns the total number of observations.
func (h *Histogram) Count() uint64 {
	if h == nil {
		return 0
	}
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the sum of observed values.
func (h *Histogram) Sum() float64 {
	if h == nil {
		return 0
	}
	return math.Float64frombits(h.sumBits.Load())
}

// DefaultDurationBuckets returns upper bounds (in seconds) suitable for
// request latencies spanning sub-millisecond cache hits to multi-minute
// simulations.
func DefaultDurationBuckets() []float64 {
	return []float64{0.001, 0.0025, 0.005, 0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 30, 60}
}

// Histogram returns the named histogram, creating it with the given bucket
// bounds on first use; on later calls the existing histogram is returned and
// bounds are ignored (bucket layouts are fixed for a registry's lifetime).
func (r *Registry) Histogram(name string, bounds []float64) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.histograms[name]
	if !ok {
		if r.histograms == nil {
			r.histograms = make(map[string]*Histogram)
		}
		h = newHistogram(bounds)
		r.histograms[name] = h
	}
	return h
}

// HistogramSample is one histogram's state in a snapshot. Counts has one
// entry per bound plus the trailing +Inf bucket; entries are per-bucket (not
// cumulative — the Prometheus exposition cumulates them on output).
type HistogramSample struct {
	Name   string
	Bounds []float64
	Counts []uint64
	Sum    float64
}

// Count returns the sample's total observation count.
func (h HistogramSample) Count() uint64 {
	var n uint64
	for _, c := range h.Counts {
		n += c
	}
	return n
}

func (h *Histogram) sample(name string) HistogramSample {
	s := HistogramSample{
		Name:   name,
		Bounds: append([]float64(nil), h.bounds...),
		Counts: make([]uint64, len(h.counts)),
		Sum:    h.Sum(),
	}
	for i := range h.counts {
		s.Counts[i] = h.counts[i].Load()
	}
	return s
}

// GetHistogram returns a histogram sample from the snapshot by name.
func (s Snapshot) GetHistogram(name string) (HistogramSample, bool) {
	i := sort.Search(len(s.Histograms), func(i int) bool { return s.Histograms[i].Name >= name })
	if i < len(s.Histograms) && s.Histograms[i].Name == name {
		return s.Histograms[i], true
	}
	return HistogramSample{}, false
}

func fprintHistograms(w io.Writer, hs []HistogramSample) {
	if len(hs) == 0 {
		return
	}
	fmt.Fprintln(w, "histograms:")
	for _, h := range hs {
		fmt.Fprintf(w, "  %s count=%d sum=%s\n", h.Name, h.Count(), formatValue(h.Sum))
		cum := uint64(0)
		for i, c := range h.Counts {
			if c == 0 {
				continue
			}
			cum += c
			if i < len(h.Bounds) {
				fmt.Fprintf(w, "    le=%s %d\n", formatValue(h.Bounds[i]), cum)
			} else {
				fmt.Fprintf(w, "    le=+Inf %d\n", cum)
			}
		}
	}
}

// writePromHistogram renders one histogram in the Prometheus exposition:
// cumulative _bucket series with le labels, then _sum and _count.
func writePromHistogram(w io.Writer, prefix string, h HistogramSample) error {
	name := PromName(prefix + h.Name)
	if _, err := fmt.Fprintf(w, "# TYPE %s histogram\n", name); err != nil {
		return err
	}
	cum := uint64(0)
	for i, c := range h.Counts {
		cum += c
		le := "+Inf"
		if i < len(h.Bounds) {
			le = promValue(h.Bounds[i])
		}
		if _, err := fmt.Fprintf(w, "%s_bucket{le=%q} %d\n", name, le, cum); err != nil {
			return err
		}
	}
	_, err := fmt.Fprintf(w, "%s_sum %s\n%s_count %d\n", name, promValue(h.Sum), name, cum)
	return err
}

// mergeHistograms combines two sorted histogram sample lists: same-name
// samples with identical bounds sum their per-bucket counts and sums;
// mismatched bucket layouts keep the first operand's sample (merging them
// meaningfully is impossible, and one registry never produces both).
func mergeHistograms(a, b []HistogramSample) []HistogramSample {
	out := make([]HistogramSample, 0, len(a)+len(b))
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
			out = append(out, combineHistogramSamples(a[i], b[j]))
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func combineHistogramSamples(a, b HistogramSample) HistogramSample {
	if len(a.Bounds) != len(b.Bounds) {
		return a
	}
	for i := range a.Bounds {
		if a.Bounds[i] != b.Bounds[i] {
			return a
		}
	}
	c := HistogramSample{
		Name:   a.Name,
		Bounds: append([]float64(nil), a.Bounds...),
		Counts: make([]uint64, len(a.Counts)),
		Sum:    a.Sum + b.Sum,
	}
	for i := range a.Counts {
		c.Counts[i] = a.Counts[i] + b.Counts[i]
	}
	return c
}
