package metrics

import (
	"bytes"
	"encoding/json"
	"reflect"
	"strings"
	"sync"
	"testing"
)

func TestCounterAdd(t *testing.T) {
	r := New()
	c := r.Counter("a.bytes")
	c.Add(1.5)
	c.Add(2.5)
	c.Inc()
	if got := c.Value(); got != 5 {
		t.Fatalf("Value = %g, want 5", got)
	}
	c.Add(-3) // negative and zero deltas are ignored
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Fatalf("Value after no-op adds = %g, want 5", got)
	}
}

func TestNilHandlesAreNoOps(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	c.Add(1)
	c.Inc()
	g.Set(2)
	g.SetMax(3)
	if c.Value() != 0 || g.Value() != 0 {
		t.Fatal("nil handles must read zero")
	}
}

func TestGaugeSetMax(t *testing.T) {
	r := New()
	g := r.Gauge("util.peak")
	g.SetMax(0.4)
	g.SetMax(0.9)
	g.SetMax(0.2)
	if got := g.Value(); got != 0.9 {
		t.Fatalf("SetMax kept %g, want 0.9", got)
	}
}

func TestHandleIdentity(t *testing.T) {
	r := New()
	if r.Counter("same") != r.Counter("same") {
		t.Fatal("Counter must return the same handle for the same name")
	}
	if r.Gauge("same") != r.Gauge("same") {
		t.Fatal("Gauge must return the same handle for the same name")
	}
}

// TestHandlesMatchCounterAndGauge pins the bulk call (Bind over an Index) to
// the one-name calls: a name registered earlier resolves to its existing
// handle, a name repeated within one call resolves once, a hole binds to
// nil, and new handles are the ones Counter and Gauge return afterwards.
func TestHandlesMatchCounterAndGauge(t *testing.T) {
	r := New()
	oldC, oldG := r.Counter("old.bytes"), r.Gauge("old.peak")
	oldC.Add(7)
	cs, gs := r.Bind(NewIndex([]string{"new.bytes", "old.bytes", "new.bytes", ""}, []string{"old.peak", "new.peak"}))
	if len(cs) != 4 || len(gs) != 2 {
		t.Fatalf("got %d counters and %d gauges, want 4 and 2", len(cs), len(gs))
	}
	if cs[1] != oldC || gs[0] != oldG {
		t.Fatal("Bind must return the handle already registered under a name")
	}
	if cs[3] != nil {
		t.Fatal("a hole must bind to a nil handle")
	}
	if cs[1].Value() != 7 {
		t.Fatalf("existing counter reads %g, want 7", cs[1].Value())
	}
	if cs[0] != cs[2] || cs[0] == cs[1] {
		t.Fatal("a name repeated within one call must resolve to one handle")
	}
	if r.Counter("new.bytes") != cs[0] || r.Gauge("new.peak") != gs[1] {
		t.Fatal("Counter/Gauge must return the handles Bind registered")
	}
	if got := len(r.Snapshot().Counters); got != 2 {
		t.Fatalf("registry holds %d counters, want 2", got)
	}

	var nilReg *Registry
	cs, gs = nilReg.Bind(NewIndex([]string{"a", "b"}, []string{"c"}))
	if len(cs) != 2 || len(gs) != 1 || cs[0] != nil || cs[1] != nil || gs[0] != nil {
		t.Fatal("a nil registry must yield nil handles, one per name")
	}
}

// TestBindSharesOneValuePerName checks the bound index against the maps: a
// registry shared by several binders, or by Bind and the one-name calls,
// keeps one value per name whichever path registered it first.
func TestBindSharesOneValuePerName(t *testing.T) {
	ix := NewIndex([]string{"a.bytes", "", "b.bytes"}, []string{"a.peak"})
	r := New()
	cs, gs := r.Bind(ix)
	cs[0].Add(3)
	gs[0].Set(2)
	again, _ := r.Bind(ix)
	if again[0] != cs[0] || again[2] != cs[2] || again[1] != nil {
		t.Fatal("binding an index twice must yield the same handles")
	}
	if r.Counter("a.bytes") != cs[0] || r.Gauge("a.peak") != gs[0] {
		t.Fatal("Counter/Gauge must return the bound handles")
	}
	other, _ := r.Bind(NewIndex([]string{"b.bytes", "c.bytes"}, nil))
	if other[0] != cs[2] || other[1] != r.Counter("c.bytes") {
		t.Fatal("a second index must share the names the first one bound")
	}
	want := Snapshot{
		Counters: []Sample{{"a.bytes", 3}, {"b.bytes", 0}, {"c.bytes", 0}},
		Gauges:   []Sample{{"a.peak", 2}},
	}
	if got := r.Snapshot(); !reflect.DeepEqual(got, want) {
		t.Fatalf("snapshot = %+v, want %+v", got, want)
	}

	held := New()
	pre := held.Counter("b.bytes")
	hs, _ := held.Bind(ix)
	if hs[2] != pre || hs[0] != held.Counter("a.bytes") {
		t.Fatal("a registry already holding a name must keep its handle")
	}
}

// TestConcurrentAdd exercises the CAS loop from many goroutines; run with
// -race this is also the package's data-race check.
func TestConcurrentAdd(t *testing.T) {
	r := New()
	c := r.Counter("contended")
	g := r.Gauge("peak")
	var wg sync.WaitGroup
	const workers, perWorker = 8, 1000
	for w := 0; w < workers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Add(1)
				g.SetMax(float64(w))
			}
		}()
	}
	wg.Wait()
	if got := c.Value(); got != workers*perWorker {
		t.Fatalf("lost updates: %g, want %d", got, workers*perWorker)
	}
	if got := g.Value(); got != workers-1 {
		t.Fatalf("gauge max = %g, want %d", got, workers-1)
	}
}

func TestSnapshotSortedAndStable(t *testing.T) {
	r := New()
	r.Counter("z.last").Add(3)
	r.Counter("a.first").Add(1)
	r.Gauge("m.mid").Set(2)
	s := r.Snapshot()
	if len(s.Counters) != 2 || s.Counters[0].Name != "a.first" || s.Counters[1].Name != "z.last" {
		t.Fatalf("counters not sorted: %+v", s.Counters)
	}
	if v, ok := s.Get("m.mid"); !ok || v != 2 {
		t.Fatalf("Get(m.mid) = %g, %v", v, ok)
	}
	if _, ok := s.Get("missing"); ok {
		t.Fatal("Get(missing) must report absence")
	}
	var a, b bytes.Buffer
	s.Fprint(&a)
	s.Fprint(&b)
	if a.String() != b.String() {
		t.Fatal("Fprint is not deterministic")
	}
	if !strings.Contains(a.String(), "a.first") {
		t.Fatalf("text output missing counter:\n%s", a.String())
	}
}

func TestJSONRoundTrip(t *testing.T) {
	r := New()
	r.Counter("pmem.s0.read.app_bytes").Add(7e10)
	r.Gauge("xpdimm.s0.xpbuffer.hit_rate").Set(0.4)
	s := r.Snapshot()

	var a, b bytes.Buffer
	if err := s.WriteJSON(&a); err != nil {
		t.Fatal(err)
	}
	if err := s.WriteJSON(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Fatal("WriteJSON is not byte-stable")
	}

	var back Snapshot
	if err := json.Unmarshal(a.Bytes(), &back); err != nil {
		t.Fatal(err)
	}
	if v, ok := back.Get("pmem.s0.read.app_bytes"); !ok || v != 7e10 {
		t.Fatalf("round-trip lost counter: %g, %v", v, ok)
	}
	if v, ok := back.Get("xpdimm.s0.xpbuffer.hit_rate"); !ok || v != 0.4 {
		t.Fatalf("round-trip lost gauge: %g, %v", v, ok)
	}
}

func TestMerge(t *testing.T) {
	ra, rb := New(), New()
	ra.Counter("shared").Add(1)
	ra.Counter("only_a").Add(2)
	ra.Gauge("peak").Set(0.3)
	rb.Counter("shared").Add(10)
	rb.Counter("only_b").Add(20)
	rb.Gauge("peak").Set(0.8)

	m := Merge(ra.Snapshot(), rb.Snapshot())
	for name, want := range map[string]float64{
		"shared": 11, "only_a": 2, "only_b": 20, // counters sum
		"peak": 0.8, // gauges take the max
	} {
		if v, ok := m.Get(name); !ok || v != want {
			t.Errorf("merged %s = %g, %v; want %g", name, v, ok, want)
		}
	}
	// Merging with the zero Snapshot is the aggregation loop's seed case.
	if v, ok := Merge(Snapshot{}, ra.Snapshot()).Get("shared"); !ok || v != 1 {
		t.Errorf("merge with empty lost data: %g, %v", v, ok)
	}
	if !(Snapshot{}).Empty() {
		t.Error("zero Snapshot must be Empty")
	}
	if m.Empty() {
		t.Error("merged snapshot must not be Empty")
	}
}
