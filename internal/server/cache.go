package server

import (
	"container/list"
	"crypto/sha256"
	"encoding/hex"
	"sync"

	"repro/internal/metrics"
)

// resultCache is the content-addressed result cache: canonical request key →
// marshaled RunResult bytes. The simulation is deterministic, so a cached
// body is indistinguishable from a fresh simulation; the cache turns
// repeated questions into memory reads, which is the first real scaling
// lever for serving the model at volume. Entries are kept LRU within a byte
// budget (bodies plus their keys are charged), and hit/miss/eviction
// traffic is recorded into the server's metrics registry.
type resultCache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	ll     *list.List               // front = most recently used
	items  map[string]*list.Element // key -> element holding *cacheEntry

	hits      *metrics.Counter
	misses    *metrics.Counter
	evictions *metrics.Counter
	bytes     *metrics.Gauge
	entries   *metrics.Gauge
}

// result is one servable result: the marshaled body, its content hash, and
// the optional trace.
type result struct {
	body []byte
	// sha is the lowercase hex SHA-256 of body — the ContentSHAHeader value —
	// computed once when the body is produced or read back from disk, so a
	// hit never rehashes it and a body that changes while resident no longer
	// matches the hash it is served with.
	sha   string
	trace []byte // simulated-time timeline (traced requests only); nil otherwise
}

func newResult(body, trace []byte) result {
	sum := sha256.Sum256(body)
	return result{body: body, sha: hex.EncodeToString(sum[:]), trace: trace}
}

func (r result) size(key string) int64 {
	return int64(len(key) + len(r.body) + len(r.trace))
}

type cacheEntry struct {
	key string
	result
}

func newResultCache(budget int64, reg *metrics.Registry) *resultCache {
	return &resultCache{
		budget:    budget,
		ll:        list.New(),
		items:     make(map[string]*list.Element),
		hits:      reg.Counter("server_cache_hits"),
		misses:    reg.Counter("server_cache_misses"),
		evictions: reg.Counter("server_cache_evictions"),
		bytes:     reg.Gauge("server_cache_bytes"),
		entries:   reg.Gauge("server_cache_entries"),
	}
}

// get returns the cached result for key and refreshes its recency. The
// returned slices are shared and must not be mutated.
func (c *resultCache) get(key string) (result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[key]
	if !found {
		c.misses.Inc()
		return result{}, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).result, true
}

// getIfPresent is get without the miss counter: the serving path uses it
// to re-check the LRU after probing the disk tier, so one cold request
// counts a single memory miss. A hit still counts (and refreshes recency).
func (c *resultCache) getIfPresent(key string) (result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, found := c.items[key]
	if !found {
		return result{}, false
	}
	c.hits.Inc()
	c.ll.MoveToFront(el)
	return el.Value.(*cacheEntry).result, true
}

// put stores r under key and evicts least-recently-used entries until the
// budget holds again. An entry that alone exceeds the whole budget is not
// cached (it would only flush everything else for a single entry).
func (c *resultCache) put(key string, r result) {
	size := r.size(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if size > c.budget {
		return
	}
	if el, ok := c.items[key]; ok {
		// Deterministic results mean a re-put carries identical bytes, but
		// replace anyway so the invariant doesn't rest on that.
		e := el.Value.(*cacheEntry)
		c.used += size - e.size(key)
		e.result = r
		c.ll.MoveToFront(el)
	} else {
		c.items[key] = c.ll.PushFront(&cacheEntry{key: key, result: r})
		c.used += size
	}
	for c.used > c.budget {
		oldest := c.ll.Back()
		if oldest == nil {
			break
		}
		e := oldest.Value.(*cacheEntry)
		c.ll.Remove(oldest)
		delete(c.items, e.key)
		c.used -= e.size(e.key)
		c.evictions.Inc()
	}
	c.bytes.Set(float64(c.used))
	c.entries.Set(float64(len(c.items)))
}

func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.items)
}

func (c *resultCache) usedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.used
}
