package server

import (
	"encoding/json"
	"fmt"
	"testing"

	"repro/internal/metrics"
)

func mustCanonical(t testing.TB, body string) canonical {
	t.Helper()
	var req RunRequest
	if err := json.Unmarshal([]byte(body), &req); err != nil {
		t.Fatalf("unmarshal %s: %v", body, err)
	}
	c, err := req.canonicalize(1)
	if err != nil {
		t.Fatalf("canonicalize %s: %v", body, err)
	}
	return c
}

// TestCanonicalKeyEquivalence pins the content-addressing contract: JSON key
// order, whitespace, explicitly-spelled defaults, delivery options, and an
// empty machine override must all map to one key.
func TestCanonicalKeyEquivalence(t *testing.T) {
	base := mustCanonical(t, `{"id":"fig04","sf":0.1}`).key()
	for _, body := range []string{
		`{"sf":0.1,"id":"fig04"}`,                 // key order
		`{"id":"fig04"}`,                          // sf defaulted
		`{ "id" : "fig04" , "quick" : false }`,    // whitespace + spelled default
		`{"id":"fig04","async":true}`,             // delivery option is not identity
		`{"id":"fig04","machine":{}}`,             // empty override = calibrated default
		`{"id":"fig04","metrics":false,"sf":0.1}`, // spelled default
	} {
		if got := mustCanonical(t, body).key(); got != base {
			t.Errorf("key(%s) = %s, want %s", body, got, base)
		}
	}
}

func TestCanonicalKeyDistinguishes(t *testing.T) {
	base := mustCanonical(t, `{"id":"fig04"}`).key()
	for _, body := range []string{
		`{"id":"fig05"}`,
		`{"id":"fig04","sf":0.05}`,
		`{"id":"fig04","quick":true}`,
		`{"id":"fig04","metrics":true}`,
		`{"id":"fig04","machine":{"PrefetcherEnabled":false}}`,
	} {
		if got := mustCanonical(t, body).key(); got == base {
			t.Errorf("key(%s) collides with the default request", body)
		}
	}
}

func TestCanonicalizeRejects(t *testing.T) {
	cases := []struct{ body, why string }{
		{`{}`, "missing id"},
		{`{"id":"nope"}`, "unknown experiment"},
		{`{"id":"fig04","sf":-1}`, "negative sf"},
		{`{"id":"fig04","sf":50}`, "sf above the server bound"},
		{`{"id":"fig04","machine":{"NoSuchKnob":1}}`, "unknown machine field"},
	}
	for _, tc := range cases {
		var req RunRequest
		if err := json.Unmarshal([]byte(tc.body), &req); err != nil {
			t.Fatalf("unmarshal %s: %v", tc.body, err)
		}
		if _, err := req.canonicalize(1); err == nil {
			t.Errorf("canonicalize(%s) succeeded, want error (%s)", tc.body, tc.why)
		}
	}
}

// TestCanonicalizeUnboundedSF checks MaxSF < 0 disables the bound.
func TestCanonicalizeUnboundedSF(t *testing.T) {
	req := RunRequest{ID: "fig04", SF: 50}
	if _, err := req.canonicalize(-1); err != nil {
		t.Fatalf("canonicalize with unbounded sf: %v", err)
	}
}

func cacheCounters(t *testing.T, reg *metrics.Registry) (hits, misses, evictions float64) {
	t.Helper()
	snap := reg.Snapshot()
	h, _ := snap.Get("server_cache_hits")
	m, _ := snap.Get("server_cache_misses")
	e, _ := snap.Get("server_cache_evictions")
	return h, m, e
}

func TestCacheLRUEviction(t *testing.T) {
	reg := metrics.New()
	// Keys are 4 bytes, bodies 28 bytes => 32 per entry; budget holds 3.
	c := newResultCache(96, reg)
	body := func(i int) []byte { return []byte(fmt.Sprintf("body-%03d--------------------", i)) }
	key := func(i int) string { return fmt.Sprintf("k%03d", i%1000)[:4] }
	for i := 0; i < 4; i++ {
		if len(body(i)) != 28 {
			t.Fatalf("test body size drifted: %d", len(body(i)))
		}
		c.put(key(i), newResult(body(i), nil))
	}
	if c.len() != 3 {
		t.Fatalf("cache holds %d entries, want 3", c.len())
	}
	if c.usedBytes() > 96 {
		t.Fatalf("cache uses %d bytes, budget 96", c.usedBytes())
	}
	if _, ok := c.get(key(0)); ok {
		t.Error("oldest entry k000 not evicted")
	}
	if _, ok := c.get(key(3)); !ok {
		t.Error("newest entry k003 missing")
	}
	_, _, ev := cacheCounters(t, reg)
	if ev != 1 {
		t.Errorf("server_cache_evictions = %v, want 1", ev)
	}

	// Touching k001 must protect it from the next eviction.
	if _, ok := c.get(key(1)); !ok {
		t.Fatal("k001 missing before recency test")
	}
	c.put(key(4), newResult(body(4), nil))
	if _, ok := c.get(key(1)); !ok {
		t.Error("recently-used k001 evicted instead of LRU k002")
	}
	if _, ok := c.get(key(2)); ok {
		t.Error("LRU k002 survived over recently-used k001")
	}
}

func TestCacheOversizedBodyNotCached(t *testing.T) {
	reg := metrics.New()
	c := newResultCache(16, reg)
	c.put("small", newResult([]byte("ok"), nil))
	c.put("huge", newResult(make([]byte, 64), nil))
	if _, ok := c.get("huge"); ok {
		t.Error("oversized body was cached")
	}
	if _, ok := c.get("small"); !ok {
		t.Error("oversized put evicted the resident entry")
	}
}

// TestCacheOversizedReplaceKeepsResident is the byte-budget edge-case
// regression: re-putting an existing key with a body larger than the whole
// budget must bypass the cache — keeping the old entry and every other
// resident entry — instead of evicting the cache and still failing to fit.
func TestCacheOversizedReplaceKeepsResident(t *testing.T) {
	reg := metrics.New()
	c := newResultCache(64, reg)
	c.put("a", newResult([]byte("alpha"), nil))
	c.put("b", newResult([]byte("beta"), nil))
	used := c.usedBytes()

	c.put("a", newResult(make([]byte, 128), nil)) // larger than the whole budget
	if res, ok := c.get("a"); !ok || string(res.body) != "alpha" {
		t.Errorf("resident entry a = %q/%v, want the original alpha", res.body, ok)
	}
	if _, ok := c.get("b"); !ok {
		t.Error("oversized re-put evicted unrelated entry b")
	}
	if c.usedBytes() != used {
		t.Errorf("usedBytes = %d after bypassed put, want %d", c.usedBytes(), used)
	}
	if _, _, ev := cacheCounters(t, reg); ev != 0 {
		t.Errorf("server_cache_evictions = %v, want 0", ev)
	}
}

// TestCacheOversizedTraceNotCached charges the trace against the budget
// too: a small body with a huge trace must bypass, not flush the cache.
func TestCacheOversizedTraceNotCached(t *testing.T) {
	reg := metrics.New()
	c := newResultCache(64, reg)
	c.put("resident", newResult([]byte("stay"), nil))
	c.put("traced", newResult([]byte("tiny"), make([]byte, 256)))
	if _, ok := c.get("traced"); ok {
		t.Error("entry whose body+trace exceed the budget was cached")
	}
	if _, ok := c.get("resident"); !ok {
		t.Error("oversized traced put evicted the resident entry")
	}
}

// TestCacheEntryExactlyAtBudgetFits pins the boundary: an entry whose
// key+body size equals the budget is admitted, not rejected.
func TestCacheEntryExactlyAtBudgetFits(t *testing.T) {
	reg := metrics.New()
	c := newResultCache(16, reg)
	c.put("abcd", newResult(make([]byte, 12), nil)) // 4 + 12 == budget
	if _, ok := c.get("abcd"); !ok {
		t.Error("entry exactly at the budget was rejected")
	}
}

func TestCacheHitMissCounters(t *testing.T) {
	reg := metrics.New()
	c := newResultCache(1<<10, reg)
	c.get("absent")
	c.put("k", newResult([]byte("v"), nil))
	c.get("k")
	c.get("k")
	hits, misses, _ := cacheCounters(t, reg)
	if hits != 2 || misses != 1 {
		t.Errorf("hits/misses = %v/%v, want 2/1", hits, misses)
	}
}
