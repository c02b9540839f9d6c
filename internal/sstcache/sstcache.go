// Package sstcache is a persistent, SSTable-style result store: the disk
// tier under pmemd's in-memory LRU. Writes land in an in-memory memtable
// and are flushed — once the memtable exceeds its byte budget — into
// sorted, immutable segment files with a sparse index and a checksummed
// footer. Opening a segment streams its records once (the pass that checks
// their checksum) and builds a dense in-memory index of every key's record
// offset, so a lookup is one map probe per segment plus one read of exactly
// the matching record: a miss touches no file, a hit reads only its own
// bytes. The on-disk sparse index is still written and checksummed, but
// lookups no longer read it.
// Flushes go through a temp file + rename, so a crash mid-flush leaves
// either the old state or the new state, never a torn segment; recovery at
// open time is just "read every segment footer, keep the ones whose
// checksums verify". Results are content-addressed and deterministic, so
// duplicate keys across segments are harmless — newest segment wins, and
// compaction folds older segments away.
package sstcache

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"

	"repro/internal/metrics"
)

// ErrCorruptRecord marks a record whose per-record CRC failed at read time:
// the bytes on (or from) the media are not the bytes that were written.
// The store treats it as a miss — the cache is derived state, recompute is
// always correct — and counts it in sstcache_read_corruptions.
var ErrCorruptRecord = errors.New("corrupt record")

// DefaultMemtableBytes is the flush threshold when Options leaves it zero.
const DefaultMemtableBytes = 4 << 20

// DefaultCompactAt is how many live segments trigger a compaction after a
// flush. Compaction rewrites all segments into one (newest entry per key
// wins), keeping the read path's segment scan short.
const DefaultCompactAt = 8

// Options configures a Store.
type Options struct {
	// MemtableBytes is the memtable flush threshold (keys + bodies +
	// traces). <= 0 means DefaultMemtableBytes.
	MemtableBytes int64
	// CompactAt is the live-segment count that triggers compaction after a
	// flush. <= 0 means DefaultCompactAt; set very high to disable.
	CompactAt int
	// Registry receives the store's sstcache_* metrics. nil means a
	// private throwaway registry.
	Registry *metrics.Registry
	// ReadTamper, when set, is applied to every record payload
	// (key·body·trace) as it is read back from a segment, before CRC
	// verification — the chaos-injection seam that makes torn-read handling
	// testable end to end. It may mutate the buffer in place (each read
	// gets a fresh one). Production stores leave it nil.
	ReadTamper func(payload []byte) []byte
}

// entry is one cached result: the served body plus its optional trace.
type entry struct {
	body  []byte
	trace []byte
}

func (e entry) size(key string) int64 {
	return int64(len(key) + len(e.body) + len(e.trace))
}

// Store is the persistent result store. All methods are safe for
// concurrent use.
type Store struct {
	dir  string
	opts Options

	mu       sync.Mutex
	mem      map[string]entry
	memBytes int64
	segs     []*segment // oldest first; lookups scan newest first
	nextSeq  uint64

	cHits        *metrics.Counter
	cMisses      *metrics.Counter
	cFlushes     *metrics.Counter
	cCompacts    *metrics.Counter
	cCorrupt     *metrics.Counter
	cReadCorrupt *metrics.Counter
	gSegments    *metrics.Gauge
	gSegBytes    *metrics.Gauge
	gMemBytes    *metrics.Gauge
	gEntries     *metrics.Gauge
}

// Open creates (if needed) dir and recovers every valid segment in it.
// Segments that fail magic/checksum validation — a torn write from a crash
// or a truncated file — are skipped and counted, never trusted.
func Open(dir string, opts Options) (*Store, error) {
	if opts.MemtableBytes <= 0 {
		opts.MemtableBytes = DefaultMemtableBytes
	}
	if opts.CompactAt <= 0 {
		opts.CompactAt = DefaultCompactAt
	}
	reg := opts.Registry
	if reg == nil {
		reg = metrics.New()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("sstcache: create dir: %w", err)
	}
	s := &Store{
		dir:          dir,
		opts:         opts,
		mem:          make(map[string]entry),
		cHits:        reg.Counter("sstcache_hits"),
		cMisses:      reg.Counter("sstcache_misses"),
		cFlushes:     reg.Counter("sstcache_flushes"),
		cCompacts:    reg.Counter("sstcache_compactions"),
		cCorrupt:     reg.Counter("sstcache_corrupt_segments"),
		cReadCorrupt: reg.Counter("sstcache_read_corruptions"),
		gSegments:    reg.Gauge("sstcache_segments"),
		gSegBytes:    reg.Gauge("sstcache_segment_bytes"),
		gMemBytes:    reg.Gauge("sstcache_memtable_bytes"),
		gEntries:     reg.Gauge("sstcache_entries"),
	}
	if err := s.recover(); err != nil {
		return nil, err
	}
	return s, nil
}

// recover scans dir for segment files, keeps the valid ones in sequence
// order, and removes leftover temp files from interrupted flushes.
func (s *Store) recover() error {
	names, err := filepath.Glob(filepath.Join(s.dir, "*"+segSuffix))
	if err != nil {
		return fmt.Errorf("sstcache: scan dir: %w", err)
	}
	sort.Strings(names) // zero-padded sequence numbers sort numerically
	for _, name := range names {
		seg, err := openSegment(name)
		if err != nil {
			// A torn or truncated segment: skip it. The entries it held are
			// recomputable (the cache is derived state), so dropping them is
			// always safe; trusting them never is.
			s.cCorrupt.Inc()
			continue
		}
		seg.tamper = s.opts.ReadTamper
		s.segs = append(s.segs, seg)
		if seg.seq >= s.nextSeq {
			s.nextSeq = seg.seq + 1
		}
	}
	// Interrupted flushes leave *.tmp files behind; they were never visible
	// and are safe to delete.
	tmps, _ := filepath.Glob(filepath.Join(s.dir, "*"+tmpSuffix+"*"))
	for _, t := range tmps {
		os.Remove(t)
	}
	s.publishGaugesLocked()
	return nil
}

// Get returns the stored body (and optional trace) for key, checking the
// memtable first, then segments newest to oldest. The returned slices must
// not be mutated.
func (s *Store) Get(key string) (body, trace []byte, ok bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, found := s.mem[key]; found {
		s.cHits.Inc()
		return e.body, e.trace, true
	}
	for i := len(s.segs) - 1; i >= 0; i-- {
		b, tr, found, err := s.segs[i].get(key)
		if err != nil {
			// A read error on a previously valid segment — a per-record CRC
			// mismatch (bytes rotted or torn after open) or an I/O fault:
			// treat as a miss rather than fail the serving path — the cache
			// is always recomputable, so falling through to compute is the
			// correct answer.
			if errors.Is(err, ErrCorruptRecord) {
				s.cReadCorrupt.Inc()
			} else {
				s.cCorrupt.Inc()
			}
			continue
		}
		if found {
			s.cHits.Inc()
			return b, tr, true
		}
	}
	s.cMisses.Inc()
	return nil, nil, false
}

// Put stores body (plus an optional trace) under key. When the memtable
// exceeds its budget the store flushes it to a new segment; an entry
// larger than the whole budget flushes immediately instead of being
// rejected — durability is the point of this tier, and segments have no
// per-entry size ceiling.
func (s *Store) Put(key string, body, trace []byte) error {
	e := entry{body: append([]byte(nil), body...), trace: append([]byte(nil), trace...)}
	if len(trace) == 0 {
		e.trace = nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, found := s.mem[key]; found {
		s.memBytes -= old.size(key)
	}
	s.mem[key] = e
	s.memBytes += e.size(key)
	if s.memBytes >= s.opts.MemtableBytes {
		if err := s.flushLocked(); err != nil {
			return err
		}
	}
	s.publishGaugesLocked()
	return nil
}

// Flush forces the memtable to disk (no-op when empty). Callers use it at
// shutdown so everything served this lifetime survives the restart.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.flushLocked()
	s.publishGaugesLocked()
	return err
}

func (s *Store) flushLocked() error {
	if len(s.mem) == 0 {
		return nil
	}
	keys := make([]string, 0, len(s.mem))
	for k := range s.mem {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]record, len(keys))
	for i, k := range keys {
		e := s.mem[k]
		recs[i] = record{key: k, body: e.body, trace: e.trace}
	}
	seq := s.nextSeq
	path := filepath.Join(s.dir, segName(seq))
	if err := writeSegment(path, seq, recs); err != nil {
		return err
	}
	seg, err := openSegment(path)
	if err != nil {
		return fmt.Errorf("sstcache: reopen fresh segment: %w", err)
	}
	seg.tamper = s.opts.ReadTamper
	s.nextSeq = seq + 1
	s.segs = append(s.segs, seg)
	s.mem = make(map[string]entry)
	s.memBytes = 0
	s.cFlushes.Inc()
	if len(s.segs) >= s.opts.CompactAt {
		if err := s.compactLocked(); err != nil {
			return err
		}
	}
	return nil
}

// compactLocked merges every live segment into one, newest entry per key
// winning, then removes the inputs. The merged segment takes a fresh
// sequence number, so a crash between rename and the removals only leaves
// redundant (identical, content-addressed) older segments behind.
func (s *Store) compactLocked() error {
	merged := make(map[string]record)
	for _, seg := range s.segs { // oldest first: later segments overwrite
		err := seg.scan(func(r record) {
			merged[r.key] = r
		})
		if err != nil {
			if errors.Is(err, ErrCorruptRecord) {
				s.cReadCorrupt.Inc()
			} else {
				s.cCorrupt.Inc()
			}
			continue
		}
	}
	keys := make([]string, 0, len(merged))
	for k := range merged {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	recs := make([]record, len(keys))
	for i, k := range keys {
		recs[i] = merged[k]
	}
	seq := s.nextSeq
	path := filepath.Join(s.dir, segName(seq))
	if err := writeSegment(path, seq, recs); err != nil {
		return err
	}
	seg, err := openSegment(path)
	if err != nil {
		return fmt.Errorf("sstcache: reopen compacted segment: %w", err)
	}
	seg.tamper = s.opts.ReadTamper
	s.nextSeq = seq + 1
	old := s.segs
	s.segs = []*segment{seg}
	for _, o := range old {
		o.close()
		os.Remove(o.path)
	}
	s.cCompacts.Inc()
	if err := syncDir(s.dir); err != nil {
		return fmt.Errorf("sstcache: sync dir after compaction: %w", err)
	}
	return nil
}

// Close flushes the memtable and releases segment handles.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	err := s.flushLocked()
	for _, seg := range s.segs {
		seg.close()
	}
	s.publishGaugesLocked()
	return err
}

// Segments reports the live segment count (post-recovery, post-compaction).
func (s *Store) Segments() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.segs)
}

// Records reports the stored record count: memtable entries plus segment
// records. Duplicate keys across segments each count (they are identical,
// content-addressed bytes; compaction folds them away).
func (s *Store) Records() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recordsLocked()
}

func (s *Store) recordsLocked() int {
	n := len(s.mem)
	for _, seg := range s.segs {
		n += seg.count
	}
	return n
}

func (s *Store) publishGaugesLocked() {
	s.gSegments.Set(float64(len(s.segs)))
	var segBytes int64
	for _, seg := range s.segs {
		segBytes += seg.fileSize
	}
	s.gSegBytes.Set(float64(segBytes))
	s.gMemBytes.Set(float64(s.memBytes))
	s.gEntries.Set(float64(s.recordsLocked()))
}
