// Package dash implements a Dash-style extendible hash index (Lu et al.,
// "Dash: Scalable Hashing on Persistent Memory", VLDB 2020) — the
// PMEM-optimized hash table the paper's handcrafted SSB uses for its joins
// (Section 6.2).
//
// The structure follows Dash's PMEM-friendly design points:
//
//   - all record storage lives in 256 B buckets, matching Optane's internal
//     access granularity, so a probe touches exactly one XPLine;
//   - each lookup checks 1-byte fingerprints before comparing keys,
//     minimizing reads within the bucket;
//   - inserts use balanced displacement into the neighbouring bucket and
//     per-segment stash buckets before forcing a segment split;
//   - segments are split with directory doubling (extendible hashing).
//
// Keys and values are uint64 (the SSB engines index row positions by join
// key). The index is backed by a flat byte arena, so its memory traffic is
// honest: Stats reports how many 256 B buckets were read and written, which
// the simulator charges as random PMEM accesses.
package dash

import (
	"encoding/binary"
	"fmt"
	"sync/atomic"
)

// Layout constants (one bucket = one Optane XPLine).
const (
	// BucketBytes is the bucket size: Optane's internal granularity.
	BucketBytes = 256
	// slotsPerBucket records fit after the 16-byte header:
	// (256-16)/16 = 15, but Dash keeps 14 plus metadata slack.
	slotsPerBucket = 14
	// regularBuckets and stashBuckets per segment (Dash uses 56+4 per 16 KiB
	// segment at its record size; we keep a 60+4 split of 64 x 256 B).
	regularBuckets = 60
	stashBuckets   = 4
	bucketsPerSeg  = regularBuckets + stashBuckets
	// SegmentBytes is one segment's footprint (16 KiB).
	SegmentBytes = bucketsPerSeg * BucketBytes

	headerBytes = 16 // bitmap (2 B) + fingerprints (14 B)
	recordBytes = 16 // key (8 B) + value (8 B)

	maxDepth = 28 // directory capped at 2^28 segments (structural safety)
)

// Stats counts the index's media-level operations; the SSB engines convert
// them into simulated PMEM traffic. Counters are updated atomically, so
// concurrent readers (Get) may share one index — the structure itself is
// safe for concurrent reads but writes require external synchronization,
// like Dash's single-writer segments.
type Stats struct {
	BucketReads   int64 // 256 B bucket loads (probes, scans during insert)
	BucketWrites  int64 // 256 B bucket stores (inserts, deletes, splits)
	Displacements int64 // balanced-insert displacements to the neighbour
	StashUses     int64 // inserts that landed in a stash bucket
	Splits        int64 // segment splits
	DirDoubles    int64 // directory doublings
}

// Index is a Dash-style extendible hash table.
type Index struct {
	segments [][]byte // each SegmentBytes long
	depths   []uint8  // local depth per segment
	stashed  []uint32 // records currently in each segment's stash (overflow metadata)
	dir      []uint32 // directory: low globalDepth bits of hash -> segment id
	global   uint8
	count    int

	stats Stats
}

// New creates an index with 2^initialDepth segments.
func New(initialDepth uint8) (*Index, error) {
	if initialDepth > maxDepth {
		return nil, fmt.Errorf("dash: initial depth %d exceeds max %d", initialDepth, maxDepth)
	}
	n := 1 << initialDepth
	ix := &Index{global: initialDepth}
	ix.dir = make([]uint32, n)
	for i := 0; i < n; i++ {
		ix.segments = append(ix.segments, make([]byte, SegmentBytes))
		ix.depths = append(ix.depths, initialDepth)
		ix.stashed = append(ix.stashed, 0)
		ix.dir[i] = uint32(i)
	}
	return ix, nil
}

// MustNew panics on error; for known-good depths.
func MustNew(initialDepth uint8) *Index {
	ix, err := New(initialDepth)
	if err != nil {
		panic(err)
	}
	return ix
}

// Len returns the number of records.
func (ix *Index) Len() int { return ix.count }

// Stats returns a consistent copy of the operation counters.
func (ix *Index) Stats() Stats {
	return Stats{
		BucketReads:   atomic.LoadInt64(&ix.stats.BucketReads),
		BucketWrites:  atomic.LoadInt64(&ix.stats.BucketWrites),
		Displacements: atomic.LoadInt64(&ix.stats.Displacements),
		StashUses:     atomic.LoadInt64(&ix.stats.StashUses),
		Splits:        atomic.LoadInt64(&ix.stats.Splits),
		DirDoubles:    atomic.LoadInt64(&ix.stats.DirDoubles),
	}
}

// ResetStats zeroes the counters (e.g., after the build phase of a join, so
// the probe phase is measured separately).
func (ix *Index) ResetStats() { ix.stats = Stats{} }

// MemoryBytes returns the index's total footprint (segments + directory).
func (ix *Index) MemoryBytes() int64 {
	return int64(len(ix.segments))*SegmentBytes + int64(len(ix.dir))*4
}

// hash64 is splitmix64: cheap, well-distributed, stdlib-only.
func hash64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (ix *Index) segmentFor(h uint64) uint32 {
	return ix.dir[h&((1<<ix.global)-1)]
}

// bucketFor picks the home bucket within a segment from bits disjoint from
// the directory bits.
func bucketFor(h uint64) int { return int((h >> 32) % regularBuckets) }

// fingerprint is one byte of the hash checked before key comparison.
func fingerprint(h uint64) byte { return byte(h >> 56) }

// bucket accessors over the arena.
type bucket []byte

func (ix *Index) bucket(seg uint32, idx int) bucket {
	off := idx * BucketBytes
	return bucket(ix.segments[seg][off : off+BucketBytes])
}

func (b bucket) bitmap() uint16         { return binary.LittleEndian.Uint16(b[0:2]) }
func (b bucket) setBitmap(m uint16)     { binary.LittleEndian.PutUint16(b[0:2], m) }
func (b bucket) fp(slot int) byte       { return b[2+slot] }
func (b bucket) setFP(slot int, f byte) { b[2+slot] = f }
func (b bucket) key(slot int) uint64 {
	off := headerBytes + slot*recordBytes
	return binary.LittleEndian.Uint64(b[off : off+8])
}
func (b bucket) value(slot int) uint64 {
	off := headerBytes + slot*recordBytes + 8
	return binary.LittleEndian.Uint64(b[off : off+8])
}
func (b bucket) setRecord(slot int, k, v uint64) {
	off := headerBytes + slot*recordBytes
	binary.LittleEndian.PutUint64(b[off:off+8], k)
	binary.LittleEndian.PutUint64(b[off+8:off+16], v)
}
func (b bucket) full() bool { return b.bitmap() == (1<<slotsPerBucket)-1 }

// findSlot returns the slot holding key (fingerprint-filtered), or -1.
func (b bucket) findSlot(k uint64, f byte) int {
	bm := b.bitmap()
	for s := 0; s < slotsPerBucket; s++ {
		if bm&(1<<uint(s)) == 0 || b.fp(s) != f {
			continue
		}
		if b.key(s) == k {
			return s
		}
	}
	return -1
}

func (b bucket) freeSlot() int {
	bm := b.bitmap()
	for s := 0; s < slotsPerBucket; s++ {
		if bm&(1<<uint(s)) == 0 {
			return s
		}
	}
	return -1
}

// Get returns the value stored under key.
func (ix *Index) Get(key uint64) (uint64, bool) {
	h := hash64(key)
	seg := ix.segmentFor(h)
	home := bucketFor(h)
	f := fingerprint(h)

	atomic.AddInt64(&ix.stats.BucketReads, 1)
	if s := ix.bucket(seg, home).findSlot(key, f); s >= 0 {
		return ix.bucket(seg, home).value(s), true
	}
	neigh := (home + 1) % regularBuckets
	atomic.AddInt64(&ix.stats.BucketReads, 1)
	if s := ix.bucket(seg, neigh).findSlot(key, f); s >= 0 {
		return ix.bucket(seg, neigh).value(s), true
	}
	// Dash keeps overflow metadata in the regular buckets: the stash is only
	// probed when the segment actually spilled records into it, so a miss on
	// an unspilled segment costs exactly two bucket reads.
	if ix.stashed[seg] > 0 {
		for i := 0; i < stashBuckets; i++ {
			atomic.AddInt64(&ix.stats.BucketReads, 1)
			b := ix.bucket(seg, regularBuckets+i)
			if s := b.findSlot(key, f); s >= 0 {
				return b.value(s), true
			}
		}
	}
	return 0, false
}

// Insert stores key -> value, updating in place if the key exists.
func (ix *Index) Insert(key, value uint64) error {
	for attempt := 0; attempt < maxDepth+2; attempt++ {
		h := hash64(key)
		seg := ix.segmentFor(h)
		if ix.tryInsert(seg, h, key, value) {
			return nil
		}
		if err := ix.split(seg); err != nil {
			return err
		}
	}
	return fmt.Errorf("dash: insert of key %d did not settle after splits", key)
}

func (ix *Index) tryInsert(seg uint32, h uint64, key, value uint64) bool {
	home := bucketFor(h)
	neigh := (home + 1) % regularBuckets
	f := fingerprint(h)

	// Update in place anywhere the key already lives.
	for _, bi := range ix.probeOrder(home, neigh) {
		b := ix.bucket(seg, bi)
		atomic.AddInt64(&ix.stats.BucketReads, 1)
		if s := b.findSlot(key, f); s >= 0 {
			b.setRecord(s, key, value)
			atomic.AddInt64(&ix.stats.BucketWrites, 1)
			return true
		}
	}
	// Balanced insert: place into the emptier of home/neighbour (Dash's
	// displacement strategy smooths load between adjacent buckets).
	hb, nb := ix.bucket(seg, home), ix.bucket(seg, neigh)
	target, targetIdx := hb, home
	if popcount16(nb.bitmap()) < popcount16(hb.bitmap()) {
		target, targetIdx = nb, neigh
		atomic.AddInt64(&ix.stats.Displacements, 1)
	}
	if s := target.freeSlot(); s >= 0 {
		ix.writeRecord(target, s, key, value, f)
		_ = targetIdx
		ix.count++
		return true
	}
	// Both full: stash.
	for i := 0; i < stashBuckets; i++ {
		b := ix.bucket(seg, regularBuckets+i)
		atomic.AddInt64(&ix.stats.BucketReads, 1)
		if s := b.freeSlot(); s >= 0 {
			ix.writeRecord(b, s, key, value, f)
			atomic.AddInt64(&ix.stats.StashUses, 1)
			ix.stashed[seg]++
			ix.count++
			return true
		}
	}
	return false
}

func (ix *Index) probeOrder(home, neigh int) [6]int {
	return [6]int{home, neigh,
		regularBuckets, regularBuckets + 1, regularBuckets + 2, regularBuckets + 3}
}

func (ix *Index) writeRecord(b bucket, slot int, key, value uint64, f byte) {
	b.setRecord(slot, key, value)
	b.setFP(slot, f)
	b.setBitmap(b.bitmap() | 1<<uint(slot))
	atomic.AddInt64(&ix.stats.BucketWrites, 1)
}

// Delete removes key, reporting whether it was present.
func (ix *Index) Delete(key uint64) bool {
	h := hash64(key)
	seg := ix.segmentFor(h)
	home := bucketFor(h)
	neigh := (home + 1) % regularBuckets
	f := fingerprint(h)
	for _, bi := range ix.probeOrder(home, neigh) {
		b := ix.bucket(seg, bi)
		atomic.AddInt64(&ix.stats.BucketReads, 1)
		if s := b.findSlot(key, f); s >= 0 {
			b.setBitmap(b.bitmap() &^ (1 << uint(s)))
			atomic.AddInt64(&ix.stats.BucketWrites, 1)
			if bi >= regularBuckets {
				ix.stashed[seg]--
			}
			ix.count--
			return true
		}
	}
	return false
}

// split divides one segment, doubling the directory if needed.
func (ix *Index) split(seg uint32) error {
	local := ix.depths[seg]
	if local == ix.global {
		if ix.global >= maxDepth {
			return fmt.Errorf("dash: directory depth limit %d reached", maxDepth)
		}
		// Double the directory.
		nd := make([]uint32, 2*len(ix.dir))
		copy(nd, ix.dir)
		copy(nd[len(ix.dir):], ix.dir)
		ix.dir = nd
		ix.global++
		atomic.AddInt64(&ix.stats.DirDoubles, 1)
	}

	newSeg := uint32(len(ix.segments))
	ix.segments = append(ix.segments, make([]byte, SegmentBytes))
	ix.depths = append(ix.depths, local+1)
	ix.stashed = append(ix.stashed, 0)
	ix.depths[seg] = local + 1
	atomic.AddInt64(&ix.stats.Splits, 1)

	// Redirect directory entries: of the slots that pointed at seg, those
	// with bit `local` set now point at the new segment.
	for i := range ix.dir {
		if ix.dir[i] == seg && (uint64(i)>>local)&1 == 1 {
			ix.dir[i] = newSeg
		}
	}

	// Rehash every record of the old segment; move those whose hash routes
	// to the new segment. One pass touches all buckets (read) and rewrites
	// both segments (write) — split cost is real PMEM traffic.
	ix.stashed[seg] = 0
	for bi := 0; bi < bucketsPerSeg; bi++ {
		b := ix.bucket(seg, bi)
		atomic.AddInt64(&ix.stats.BucketReads, 1)
		bm := b.bitmap()
		if bm == 0 {
			continue
		}
		rewrote := false
		for s := 0; s < slotsPerBucket; s++ {
			if bm&(1<<uint(s)) == 0 {
				continue
			}
			k := b.key(s)
			h := hash64(k)
			if (h>>local)&1 == 1 {
				// Move to the new segment.
				v := b.value(s)
				bm &^= 1 << uint(s)
				rewrote = true
				ix.count-- // reinsert below re-increments
				if !ix.tryInsert(newSeg, h, k, v) {
					// A pathological distribution could overflow the fresh
					// segment; recurse.
					b.setBitmap(bm)
					if err := ix.split(newSeg); err != nil {
						return err
					}
					if !ix.tryInsert(ix.segmentFor(h), h, k, v) {
						return fmt.Errorf("dash: record lost during split")
					}
				}
			}
		}
		if rewrote {
			b.setBitmap(bm)
			atomic.AddInt64(&ix.stats.BucketWrites, 1)
		}
	}
	// Recount overflow metadata: records that stayed in the old stash.
	for i := 0; i < stashBuckets; i++ {
		ix.stashed[seg] += uint32(popcount16(ix.bucket(seg, regularBuckets+i).bitmap()))
	}
	return nil
}

func popcount16(x uint16) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}

// LoadFactor returns records per available slot.
func (ix *Index) LoadFactor() float64 {
	cap := len(ix.segments) * bucketsPerSeg * slotsPerBucket
	if cap == 0 {
		return 0
	}
	return float64(ix.count) / float64(cap)
}
