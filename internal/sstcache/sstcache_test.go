package sstcache

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/metrics"
)

func openTest(t *testing.T, dir string, opts Options) *Store {
	t.Helper()
	s, err := Open(dir, opts)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

func TestPutGetRoundTrip(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{})
	if err := s.Put("k1", []byte("body-1"), []byte("trace-1")); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k2", []byte("body-2"), nil); err != nil {
		t.Fatal(err)
	}
	body, trace, ok := s.Get("k1")
	if !ok || string(body) != "body-1" || string(trace) != "trace-1" {
		t.Fatalf("Get(k1) = %q/%q/%v", body, trace, ok)
	}
	body, trace, ok = s.Get("k2")
	if !ok || string(body) != "body-2" || trace != nil {
		t.Fatalf("Get(k2) = %q/%q/%v", body, trace, ok)
	}
	if _, _, ok := s.Get("absent"); ok {
		t.Error("Get(absent) found something")
	}
}

// TestFlushTriggeredBySize checks the memtable flushes once it exceeds its
// byte budget, and that flushed entries stay readable from the segment.
func TestFlushTriggeredBySize(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{MemtableBytes: 256})
	for i := 0; i < 8; i++ {
		if err := s.Put(fmt.Sprintf("key-%03d", i), make([]byte, 64), nil); err != nil {
			t.Fatal(err)
		}
	}
	if s.Segments() == 0 {
		t.Fatal("no flush after exceeding the memtable budget")
	}
	for i := 0; i < 8; i++ {
		if _, _, ok := s.Get(fmt.Sprintf("key-%03d", i)); !ok {
			t.Errorf("key-%03d unreadable after flush", i)
		}
	}
}

// TestOversizedEntryStillStored pins the disk tier's contract for entries
// larger than the whole memtable budget: they flush immediately rather
// than being rejected (the satellite LRU fix rejects; the durable tier
// must not lose results).
func TestOversizedEntryStillStored(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{MemtableBytes: 64})
	big := bytes.Repeat([]byte("x"), 1024)
	if err := s.Put("big", big, nil); err != nil {
		t.Fatal(err)
	}
	if s.Segments() != 1 {
		t.Fatalf("oversized put produced %d segments, want immediate flush", s.Segments())
	}
	body, _, ok := s.Get("big")
	if !ok || !bytes.Equal(body, big) {
		t.Fatal("oversized entry unreadable")
	}
}

// TestRestartRecovery is the tier's reason to exist: everything flushed
// (explicitly or by budget) survives a reopen byte-for-byte.
func TestRestartRecovery(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	want := map[string]string{}
	for i := 0; i < 40; i++ {
		k, v := fmt.Sprintf("key-%03d", i), fmt.Sprintf("value-%03d", i)
		want[k] = v
		if err := s.Put(k, []byte(v), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2 := openTest(t, dir, Options{})
	if s2.Segments() == 0 {
		t.Fatal("reopened store has no segments")
	}
	for k, v := range want {
		body, _, ok := s2.Get(k)
		if !ok || string(body) != v {
			t.Fatalf("after restart Get(%s) = %q/%v, want %q", k, body, ok, v)
		}
	}
	if s2.Records() != 40 {
		t.Errorf("Records() = %d, want 40", s2.Records())
	}
}

// TestDenseIndexLookup stores enough keys to span several indexEvery
// blocks of the on-disk sparse index and checks the dense index finds every
// one, including keys at block boundaries, while keys that fall between
// stored keys, before the first, or past the last miss.
func TestDenseIndexLookup(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	const n = 10 * indexEvery
	for i := 0; i < n; i++ {
		// Even-numbered keys only, so odd probes miss between records.
		k := fmt.Sprintf("key-%06d", 2*i)
		if err := s.Put(k, []byte(k+"-body"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		k := fmt.Sprintf("key-%06d", 2*i)
		body, _, ok := s.Get(k)
		if !ok || string(body) != k+"-body" {
			t.Fatalf("Get(%s) = %q/%v", k, body, ok)
		}
		if _, _, ok := s.Get(fmt.Sprintf("key-%06d", 2*i+1)); ok {
			t.Fatalf("between-records probe %d unexpectedly found", 2*i+1)
		}
	}
	if _, _, ok := s.Get("aaa"); ok { // before the first key
		t.Error("probe before first key found")
	}
	if _, _, ok := s.Get("zzz"); ok { // past the last key
		t.Error("probe past last key found")
	}
}

// TestNewestSegmentWins re-puts a key after a flush: the read must come
// from the newer write wherever it lives.
func TestNewestSegmentWins(t *testing.T) {
	s := openTest(t, t.TempDir(), Options{CompactAt: 100})
	if err := s.Put("k", []byte("old"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("k", []byte("new"), nil); err != nil {
		t.Fatal(err)
	}
	if body, _, ok := s.Get("k"); !ok || string(body) != "new" {
		t.Fatalf("Get(k) = %q/%v, want new (memtable over segment)", body, ok)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if body, _, ok := s.Get("k"); !ok || string(body) != "new" {
		t.Fatalf("Get(k) = %q/%v, want new (newest segment wins)", body, ok)
	}
}

// TestCompaction folds many segments into one without losing entries.
func TestCompaction(t *testing.T) {
	reg := metrics.New()
	s := openTest(t, t.TempDir(), Options{CompactAt: 4, Registry: reg})
	for i := 0; i < 4; i++ {
		if err := s.Put(fmt.Sprintf("key-%d", i), []byte(fmt.Sprintf("v%d", i)), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	if s.Segments() != 1 {
		t.Fatalf("after compaction Segments() = %d, want 1", s.Segments())
	}
	for i := 0; i < 4; i++ {
		body, _, ok := s.Get(fmt.Sprintf("key-%d", i))
		if !ok || string(body) != fmt.Sprintf("v%d", i) {
			t.Fatalf("post-compaction Get(key-%d) = %q/%v", i, body, ok)
		}
	}
	if v, _ := reg.Snapshot().Get("sstcache_compactions"); v < 1 {
		t.Errorf("sstcache_compactions = %v, want >= 1", v)
	}
}

// TestCorruptSegmentSkipped truncates and bit-flips segments on disk: the
// reopen must skip them (counted) instead of serving garbage or failing.
func TestCorruptSegmentSkipped(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if err := s.Put("k", []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("glob: %v, %d segments", err, len(segs))
	}

	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	// Bit-flip inside the record region (past the header).
	flipped := append([]byte(nil), raw...)
	flipped[headerSize+2] ^= 0xff
	if err := os.WriteFile(segs[0], flipped, 0o644); err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	s2 := openTest(t, dir, Options{Registry: reg})
	if s2.Segments() != 0 {
		t.Errorf("bit-flipped segment survived validation")
	}
	if _, _, ok := s2.Get("k"); ok {
		t.Error("corrupt segment served a value")
	}
	if v, _ := reg.Snapshot().Get("sstcache_corrupt_segments"); v != 1 {
		t.Errorf("sstcache_corrupt_segments = %v, want 1", v)
	}
	s2.Close()

	// Truncation (a crash mid-write that somehow skipped the temp file)
	// must also fail validation.
	if err := os.WriteFile(segs[0], raw[:len(raw)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	s3 := openTest(t, dir, Options{})
	if s3.Segments() != 0 {
		t.Error("truncated segment survived validation")
	}
}

// TestLeftoverTempFilesRemoved simulates a crash mid-flush: a stray temp
// file in the directory is deleted at open and never treated as a segment.
func TestLeftoverTempFilesRemoved(t *testing.T) {
	dir := t.TempDir()
	stray := filepath.Join(dir, segName(7)+tmpSuffix+"12345")
	if err := os.WriteFile(stray, []byte("partial write"), 0o644); err != nil {
		t.Fatal(err)
	}
	s := openTest(t, dir, Options{})
	if s.Segments() != 0 {
		t.Fatalf("temp file counted as a segment")
	}
	if _, err := os.Stat(stray); !os.IsNotExist(err) {
		t.Errorf("stray temp file not removed: %v", err)
	}
}

// TestSequenceNumbersAdvanceAcrossRestart checks a reopened store never
// reuses a live segment's sequence number.
func TestSequenceNumbersAdvanceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{CompactAt: 100})
	for i := 0; i < 3; i++ {
		if err := s.Put(fmt.Sprintf("k%d", i), []byte("v"), nil); err != nil {
			t.Fatal(err)
		}
		if err := s.Flush(); err != nil {
			t.Fatal(err)
		}
	}
	s.Close()
	s2 := openTest(t, dir, Options{CompactAt: 100})
	if err := s2.Put("k9", []byte("v9"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s2.Flush(); err != nil {
		t.Fatal(err)
	}
	if got := s2.Segments(); got != 4 {
		t.Fatalf("Segments() = %d, want 4 (no overwrite of recovered files)", got)
	}
	for i := 0; i < 3; i++ {
		if _, _, ok := s2.Get(fmt.Sprintf("k%d", i)); !ok {
			t.Errorf("recovered k%d lost after post-restart flush", i)
		}
	}
}

func TestMetricsRecorded(t *testing.T) {
	reg := metrics.New()
	s := openTest(t, t.TempDir(), Options{Registry: reg})
	s.Put("k", []byte("v"), nil)
	s.Get("k")
	s.Get("absent")
	s.Flush()
	snap := reg.Snapshot()
	for name, want := range map[string]float64{
		"sstcache_hits":     1,
		"sstcache_misses":   1,
		"sstcache_flushes":  1,
		"sstcache_segments": 1,
	} {
		if v, _ := snap.Get(name); v != want {
			t.Errorf("%s = %v, want %v", name, v, want)
		}
	}
}

// TestBitFlippedRecordFallsBack: flipping one bit of a record body *after*
// the segment was opened (so open-time region CRCs never saw it) makes the
// read fail its per-record CRC: Get treats the key as a miss and counts a
// read corruption instead of serving the rotted bytes. Records that sort
// before the corrupted one (the scan never crosses it) stay readable.
func TestBitFlippedRecordFallsBack(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	s := openTest(t, dir, Options{Registry: reg})
	bodyB := []byte("beta-body-bytes")
	if err := s.Put("ka", []byte("alpha-body-bytes"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Put("kb", bodyB, nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit of kb's body on disk. The store's open file handle reads
	// through to the changed byte.
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments: %v %v", segs, err)
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	i := bytes.Index(raw, bodyB)
	if i < 0 {
		t.Fatal("body bytes not found in segment file")
	}
	raw[i] ^= 0x01
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}

	if _, _, ok := s.Get("kb"); ok {
		t.Error("Get(kb) served a bit-flipped record")
	}
	if got, _ := reg.Snapshot().Get("sstcache_read_corruptions"); got != 1 {
		t.Errorf("sstcache_read_corruptions = %g, want 1", got)
	}
	if body, _, ok := s.Get("ka"); !ok || string(body) != "alpha-body-bytes" {
		t.Errorf("Get(ka) = %q/%v, want intact preceding record", body, ok)
	}
}

// TestReadTamperHook: the chaos seam — a tamper hook that corrupts every
// record payload read back makes every segment read a counted miss; a
// pass-through hook leaves reads intact.
func TestReadTamperHook(t *testing.T) {
	dir := t.TempDir()
	reg := metrics.New()
	s := openTest(t, dir, Options{
		Registry:   reg,
		ReadTamper: func(p []byte) []byte { p[0] ^= 0x80; return p },
	})
	if err := s.Put("key", []byte("value"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	if _, _, ok := s.Get("key"); ok {
		t.Error("tampered read served corrupt bytes")
	}
	if got, _ := reg.Snapshot().Get("sstcache_read_corruptions"); got == 0 {
		t.Error("tampered read not counted in sstcache_read_corruptions")
	}

	// Same directory reopened without the hook: the data on disk was never
	// corrupted, only the read path was.
	s2 := openTest(t, dir, Options{})
	if body, _, ok := s2.Get("key"); !ok || string(body) != "value" {
		t.Errorf("clean reopen Get = %q/%v, want value", body, ok)
	}
}

// TestStoreGetAllocs caps the disk tier's read path: a miss probes only
// the in-memory index and allocates nothing; a hit reads one record.
func TestStoreGetAllocs(t *testing.T) {
	s, _ := buildBenchStore(t, t.TempDir(), 64, 4)
	hit, miss := benchKey(7), benchKey(64)
	if n := testing.AllocsPerRun(100, func() { s.Get(miss) }); n != 0 {
		t.Errorf("a miss allocates %v times, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { s.Get(hit) }); n > 2 {
		t.Errorf("a hit allocates %v times, cap 2", n)
	}
	s.Close()
}

// TestIndexedKeyMismatchIsCorrupt: when the record at a key's indexed
// offset holds another key (its CRC intact), Get counts a read corruption
// and misses instead of serving the other key's bytes.
func TestIndexedKeyMismatchIsCorrupt(t *testing.T) {
	reg := metrics.New()
	s := openTest(t, t.TempDir(), Options{Registry: reg})
	for _, k := range []string{"ka", "kb"} {
		if err := s.Put(k, []byte(k+"-body"), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Flush(); err != nil {
		t.Fatal(err)
	}
	seg := s.segs[0]
	seg.index["kb"] = seg.index["ka"]
	if body, _, ok := s.Get("kb"); ok {
		t.Fatalf("Get(kb) served %q from another key's record", body)
	}
	if got, _ := reg.Snapshot().Get("sstcache_read_corruptions"); got != 1 {
		t.Errorf("sstcache_read_corruptions = %g, want 1", got)
	}
	if body, _, ok := s.Get("ka"); !ok || string(body) != "ka-body" {
		t.Errorf("Get(ka) = %q/%v", body, ok)
	}
}

// TestAbsurdFooterCountRejected: the footer's record count is not covered
// by either region CRC, so a count larger than the data region can hold
// fails validation before anything is sized by it.
func TestAbsurdFooterCountRejected(t *testing.T) {
	dir := t.TempDir()
	s := openTest(t, dir, Options{})
	if err := s.Put("k", []byte("v"), nil); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, err := filepath.Glob(filepath.Join(dir, "*"+segSuffix))
	if err != nil || len(segs) != 1 {
		t.Fatalf("glob: %v, %d segments", err, len(segs))
	}
	raw, err := os.ReadFile(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	binary.BigEndian.PutUint32(raw[len(raw)-footerSize+8:], 0xffffffff)
	if err := os.WriteFile(segs[0], raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := openSegment(segs[0]); err == nil || !strings.Contains(err.Error(), "footer claims") {
		t.Fatalf("openSegment = %v, want the footer count rejected", err)
	}
}
