package sstcache

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"testing"
)

// benchBodyBytes is the body size of a stored benchmark entry, about the
// size of a served result.
const benchBodyBytes = 2 << 10

// benchKey is the i-th benchmark key, shaped like a pmemd cache key.
func benchKey(i int) string {
	sum := sha256.Sum256([]byte(fmt.Sprint(i)))
	return hex.EncodeToString(sum[:])
}

// buildBenchStore writes n entries (keys benchKey(0..n-1)) round-robin
// into segs segments in dir and opens the store over them. Every record
// shares one body buffer, so building a large store costs disk, not memory.
// It also returns the heap bytes the open store holds per entry.
func buildBenchStore(tb testing.TB, dir string, n, segs int) (*Store, float64) {
	tb.Helper()
	body := make([]byte, benchBodyBytes)
	for seg := 0; seg < segs; seg++ {
		var recs []record
		for i := seg; i < n; i += segs {
			recs = append(recs, record{key: benchKey(i), body: body})
		}
		sort.Slice(recs, func(a, b int) bool { return recs[a].key < recs[b].key })
		if err := writeSegment(filepath.Join(dir, segName(uint64(seg))), uint64(seg), recs); err != nil {
			tb.Fatal(err)
		}
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s, err := Open(dir, Options{CompactAt: segs + 1})
	if err != nil {
		tb.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if s.Segments() != segs || s.Records() != n {
		tb.Fatalf("store has %d segments and %d records, want %d and %d", s.Segments(), s.Records(), segs, n)
	}
	return s, float64(int64(after.HeapAlloc)-int64(before.HeapAlloc)) / float64(n)
}

// BenchmarkStoreGet is the disk tier's read-scaling table: Get on a hit and
// on a miss, at 10^2 to 10^5 stored entries split over 1, 4 and 8 segments.
// heapB/entry is the heap the open store holds per stored entry.
func BenchmarkStoreGet(b *testing.B) {
	for _, n := range []int{100, 1_000, 10_000, 100_000} {
		for _, segs := range []int{1, 4, 8} {
			dir := b.TempDir()
			s, perEntry := buildBenchStore(b, dir, n, segs)
			keys := make([]string, n)
			absent := make([]string, n)
			for i := range keys {
				keys[i] = benchKey(i)
				absent[i] = benchKey(n + i)
			}
			for _, c := range []struct {
				name string
				keys []string
				want bool
			}{{"hit", keys, true}, {"miss", absent, false}} {
				b.Run(fmt.Sprintf("%s/entries=%d/segments=%d", c.name, n, segs), func(b *testing.B) {
					b.ReportAllocs()
					b.ReportMetric(perEntry, "heapB/entry")
					for i := 0; i < b.N; i++ {
						if _, _, ok := s.Get(c.keys[i%n]); ok != c.want {
							b.Fatalf("Get(%s) found %v, want %v", c.keys[i%n], ok, c.want)
						}
					}
				})
			}
			s.Close()
			os.RemoveAll(dir)
		}
	}
}
