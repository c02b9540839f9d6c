package sstcache

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
)

// Segment file layout (all integers big-endian):
//
//	header:  magic "PMSSTBL2" (8) · seq u64
//	records: sorted ascending by key, each
//	         keyLen u32 · bodyLen u32 · traceLen u32 · recordCRC u32 ·
//	         key · body · trace
//	index:   every indexEvery-th record, each
//	         keyLen u32 · offset u64 · key      (offset from file start)
//	footer:  indexOffset u64 · recordCount u32 · indexCount u32 ·
//	         dataCRC u32 · indexCRC u32 · magic "PMSSTEND" (8)
//
// openSegment streams the whole record region once to check its CRC and, in
// the same pass, builds a dense in-memory index (key -> record offset), so
// a lookup is one map probe plus one record read. The sparse on-disk index
// is still written and its region checksummed at open, but lookups no
// longer read it. The two region CRCs cover the record and index regions,
// so a torn flush or truncated file fails validation at open and is
// skipped by recovery.
// recordCRC (CRC32-Castagnoli over key·body·trace) is verified on *every*
// read, so bytes rotted or torn after open — media faults, or an injected
// chaos tamper — surface as a per-record corruption instead of being
// served. (The previous "PMSSTBL1" format had no per-record CRC; such
// segments fail the magic check at open and are recomputed, which is
// always safe for this derived-state tier.)

const (
	segSuffix  = ".seg"
	tmpSuffix  = ".tmp"
	headerSize = 16
	footerSize = 32
	recHdrSize = 16
	indexEvery = 16
)

var (
	segMagic = [8]byte{'P', 'M', 'S', 'S', 'T', 'B', 'L', '2'}
	endMagic = [8]byte{'P', 'M', 'S', 'S', 'T', 'E', 'N', 'D'}
	crcTable = crc32.MakeTable(crc32.Castagnoli)
)

// maxRecordPart bounds each length field read back from disk, rejecting
// absurd values from corruption before any allocation happens.
const maxRecordPart = 1 << 30

func segName(seq uint64) string { return fmt.Sprintf("%012d%s", seq, segSuffix) }

// record is one key's stored value in segment order.
type record struct {
	key   string
	body  []byte
	trace []byte
}

type indexEntry struct {
	key string
	off int64
}

// segment is an open, validated, immutable segment file.
type segment struct {
	path     string
	f        *os.File
	seq      uint64
	count    int
	fileSize int64
	dataEnd  int64               // index region start == end of records
	index    map[string]int64    // every record's key -> its offset
	tamper   func([]byte) []byte // optional read-path fault hook (chaos/tests)
}

// writeSegment renders records (already sorted by key) into path via a
// temp file + fsync + rename + directory fsync, so the segment becomes
// visible atomically and the rename survives a crash.
func writeSegment(path string, seq uint64, recs []record) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+tmpSuffix+"*")
	if err != nil {
		return fmt.Errorf("sstcache: create temp segment: %w", err)
	}
	defer func() {
		if tmp != nil {
			tmp.Close()
			os.Remove(tmp.Name())
		}
	}()

	w := bufio.NewWriter(tmp)
	dataCRC := crc32.New(crcTable)
	indexCRC := crc32.New(crcTable)
	data := io.MultiWriter(w, dataCRC)

	var hdr [headerSize]byte
	copy(hdr[:8], segMagic[:])
	binary.BigEndian.PutUint64(hdr[8:], seq)
	if _, err := data.Write(hdr[:]); err != nil {
		return err
	}

	off := int64(headerSize)
	var index []indexEntry
	var lenBuf [recHdrSize]byte
	for i, r := range recs {
		if i%indexEvery == 0 {
			index = append(index, indexEntry{key: r.key, off: off})
		}
		recCRC := crc32.Checksum([]byte(r.key), crcTable)
		recCRC = crc32.Update(recCRC, crcTable, r.body)
		recCRC = crc32.Update(recCRC, crcTable, r.trace)
		binary.BigEndian.PutUint32(lenBuf[0:], uint32(len(r.key)))
		binary.BigEndian.PutUint32(lenBuf[4:], uint32(len(r.body)))
		binary.BigEndian.PutUint32(lenBuf[8:], uint32(len(r.trace)))
		binary.BigEndian.PutUint32(lenBuf[12:], recCRC)
		if _, err := data.Write(lenBuf[:]); err != nil {
			return err
		}
		for _, part := range [][]byte{[]byte(r.key), r.body, r.trace} {
			if _, err := data.Write(part); err != nil {
				return err
			}
		}
		off += recHdrSize + int64(len(r.key)) + int64(len(r.body)) + int64(len(r.trace))
	}

	indexOffset := off
	idx := io.MultiWriter(w, indexCRC)
	var ixBuf [12]byte
	for _, e := range index {
		binary.BigEndian.PutUint32(ixBuf[0:], uint32(len(e.key)))
		binary.BigEndian.PutUint64(ixBuf[4:], uint64(e.off))
		if _, err := idx.Write(ixBuf[:]); err != nil {
			return err
		}
		if _, err := io.WriteString(idx, e.key); err != nil {
			return err
		}
	}

	var foot [footerSize]byte
	binary.BigEndian.PutUint64(foot[0:], uint64(indexOffset))
	binary.BigEndian.PutUint32(foot[8:], uint32(len(recs)))
	binary.BigEndian.PutUint32(foot[12:], uint32(len(index)))
	binary.BigEndian.PutUint32(foot[16:], dataCRC.Sum32())
	binary.BigEndian.PutUint32(foot[20:], indexCRC.Sum32())
	copy(foot[24:], endMagic[:])
	if _, err := w.Write(foot[:]); err != nil {
		return err
	}
	if err := w.Flush(); err != nil {
		return err
	}
	if err := tmp.Sync(); err != nil {
		return err
	}
	name := tmp.Name()
	if err := tmp.Close(); err != nil {
		return err
	}
	tmp = nil
	if err := os.Rename(name, path); err != nil {
		os.Remove(name)
		return fmt.Errorf("sstcache: publish segment: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return fmt.Errorf("sstcache: sync segment dir: %w", err)
	}
	return nil
}

// syncDir makes dir's entries durable: a rename or removal inside it is not
// on disk until the directory itself is synced.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// openSegment validates path's header, footer, and both region checksums,
// and builds the dense index while the record region streams through its
// CRC. Any mismatch returns an error; recovery treats that as "this segment
// does not exist".
func openSegment(path string) (*segment, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	ok := false
	defer func() {
		if !ok {
			f.Close()
		}
	}()
	st, err := f.Stat()
	if err != nil {
		return nil, err
	}
	size := st.Size()
	if size < headerSize+footerSize {
		return nil, fmt.Errorf("sstcache: segment %s too short (%d bytes)", path, size)
	}

	var hdr [headerSize]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, err
	}
	if [8]byte(hdr[:8]) != segMagic {
		return nil, fmt.Errorf("sstcache: segment %s has bad magic", path)
	}
	seq := binary.BigEndian.Uint64(hdr[8:])

	var foot [footerSize]byte
	if _, err := f.ReadAt(foot[:], size-footerSize); err != nil {
		return nil, err
	}
	if [8]byte(foot[24:]) != endMagic {
		return nil, fmt.Errorf("sstcache: segment %s has bad footer magic", path)
	}
	indexOffset := int64(binary.BigEndian.Uint64(foot[0:]))
	count := int(binary.BigEndian.Uint32(foot[8:]))
	wantDataCRC := binary.BigEndian.Uint32(foot[16:])
	wantIndexCRC := binary.BigEndian.Uint32(foot[20:])
	if indexOffset < headerSize || indexOffset > size-footerSize {
		return nil, fmt.Errorf("sstcache: segment %s index offset %d out of range", path, indexOffset)
	}

	dataCRC := crc32.New(crcTable)
	data := bufio.NewReaderSize(io.TeeReader(io.NewSectionReader(f, 0, indexOffset), dataCRC), 64<<10)
	index, indexErr := indexRecords(data, indexOffset, count)
	// Drain what the index pass left unread, so the CRC covers the region.
	if _, err := io.Copy(io.Discard, data); err != nil {
		return nil, err
	}
	if dataCRC.Sum32() != wantDataCRC {
		return nil, fmt.Errorf("sstcache: segment %s data checksum mismatch", path)
	}
	if indexErr != nil {
		return nil, fmt.Errorf("sstcache: segment %s: %w", path, indexErr)
	}
	indexCRC := crc32.New(crcTable)
	if _, err := io.Copy(indexCRC, io.NewSectionReader(f, indexOffset, size-footerSize-indexOffset)); err != nil {
		return nil, err
	}
	if indexCRC.Sum32() != wantIndexCRC {
		return nil, fmt.Errorf("sstcache: segment %s index checksum mismatch", path)
	}

	ok = true
	return &segment{
		path:     path,
		f:        f,
		seq:      seq,
		count:    count,
		fileSize: size,
		dataEnd:  indexOffset,
		index:    index,
	}, nil
}

// indexRecords walks the record region [0, end) from its start (header
// included), reading each record's lengths and key and skipping its body
// and trace, and returns every key's record offset. It fails unless the
// records tile the region exactly and number count.
func indexRecords(r *bufio.Reader, end int64, count int) (map[string]int64, error) {
	if _, err := r.Discard(headerSize); err != nil {
		return nil, err
	}
	// The footer is outside both CRCs: bound its count by the fewest bytes
	// a record takes before sizing the map by it.
	if int64(count) > (end-headerSize)/recHdrSize {
		return nil, fmt.Errorf("footer claims %d records, more than the data region holds", count)
	}
	index := make(map[string]int64, count)
	var lenBuf [recHdrSize]byte
	var key []byte
	n := 0
	for off := int64(headerSize); off < end; n++ {
		if _, err := io.ReadFull(r, lenBuf[:]); err != nil {
			return nil, fmt.Errorf("record at %d: %w", off, err)
		}
		klen := int(binary.BigEndian.Uint32(lenBuf[0:]))
		blen := int(binary.BigEndian.Uint32(lenBuf[4:]))
		tlen := int(binary.BigEndian.Uint32(lenBuf[8:]))
		next := off + recHdrSize + int64(klen) + int64(blen) + int64(tlen)
		if klen > maxRecordPart || blen > maxRecordPart || tlen > maxRecordPart || next > end {
			return nil, fmt.Errorf("record at %d overruns data region", off)
		}
		if cap(key) < klen {
			key = make([]byte, klen)
		}
		key = key[:klen]
		if _, err := io.ReadFull(r, key); err != nil {
			return nil, fmt.Errorf("record at %d: %w", off, err)
		}
		if _, err := r.Discard(blen + tlen); err != nil {
			return nil, fmt.Errorf("record at %d: %w", off, err)
		}
		index[string(key)] = off
		off = next
	}
	if n != count {
		return nil, fmt.Errorf("%d records, footer says %d", n, count)
	}
	return index, nil
}

// readRecordAt reads the record starting at off and returns its payload
// (key·body·trace), key and body lengths, and the offset just past it. The
// record CRC is verified against the payload as read (after the optional
// tamper hook), so any byte that changed since the segment was written — on
// the media or in flight — fails the read with ErrCorruptRecord instead of
// being served.
func (s *segment) readRecordAt(off int64) (payload []byte, klen, blen int, next int64, err error) {
	var lenBuf [recHdrSize]byte
	if _, err := s.f.ReadAt(lenBuf[:], off); err != nil {
		return nil, 0, 0, 0, err
	}
	klen = int(binary.BigEndian.Uint32(lenBuf[0:]))
	blen = int(binary.BigEndian.Uint32(lenBuf[4:]))
	tlen := int(binary.BigEndian.Uint32(lenBuf[8:]))
	wantCRC := binary.BigEndian.Uint32(lenBuf[12:])
	if klen > maxRecordPart || blen > maxRecordPart || tlen > maxRecordPart {
		return nil, 0, 0, 0, fmt.Errorf("sstcache: segment %s record at %d has absurd lengths", s.path, off)
	}
	total := int64(klen + blen + tlen)
	if off+recHdrSize+total > s.dataEnd {
		return nil, 0, 0, 0, fmt.Errorf("sstcache: segment %s record at %d overruns data region", s.path, off)
	}
	payload = make([]byte, total)
	if _, err := s.f.ReadAt(payload, off+recHdrSize); err != nil {
		return nil, 0, 0, 0, err
	}
	if s.tamper != nil {
		payload = s.tamper(payload)
	}
	if int64(len(payload)) != total || crc32.Checksum(payload, crcTable) != wantCRC {
		return nil, 0, 0, 0, fmt.Errorf("sstcache: segment %s record at %d: %w", s.path, off, ErrCorruptRecord)
	}
	return payload, klen, blen, off + recHdrSize + total, nil
}

// splitRecord cuts a verified payload into its body and trace (nil when
// the record has none).
func splitRecord(payload []byte, klen, blen int) (body, trace []byte) {
	body = payload[klen : klen+blen]
	if len(payload) > klen+blen {
		trace = payload[klen+blen:]
	}
	return body, trace
}

// get looks key up in the dense index and reads only its record. A record
// whose key is not the indexed one fails with ErrCorruptRecord.
func (s *segment) get(key string) (body, trace []byte, found bool, err error) {
	off, ok := s.index[key]
	if !ok {
		return nil, nil, false, nil
	}
	payload, klen, blen, _, err := s.readRecordAt(off)
	if err != nil {
		return nil, nil, false, err
	}
	if string(payload[:klen]) != key {
		return nil, nil, false, fmt.Errorf("sstcache: segment %s record at %d holds another key: %w", s.path, off, ErrCorruptRecord)
	}
	body, trace = splitRecord(payload, klen, blen)
	return body, trace, true, nil
}

// scan streams every record in key order through fn.
func (s *segment) scan(fn func(record)) error {
	off := int64(headerSize)
	for off < s.dataEnd {
		payload, klen, blen, next, err := s.readRecordAt(off)
		if err != nil {
			return err
		}
		body, trace := splitRecord(payload, klen, blen)
		fn(record{key: string(payload[:klen]), body: body, trace: trace})
		off = next
	}
	return nil
}

func (s *segment) close() {
	s.f.Close()
}
