package sstcache

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"
)

// segmentBytes renders records into segment file bytes.
func segmentBytes(tb testing.TB, recs []record) []byte {
	tb.Helper()
	path := filepath.Join(tb.TempDir(), segName(1))
	if err := writeSegment(path, 1, recs); err != nil {
		tb.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		tb.Fatal(err)
	}
	return data
}

// checkRecordAt fails unless the record stored at off in data holds exactly
// key·body·trace and its stored CRC matches them.
func checkRecordAt(t *testing.T, data []byte, off int64, key string, body, trace []byte) {
	t.Helper()
	if off < 0 || off+recHdrSize > int64(len(data)) {
		t.Fatalf("record offset %d outside the file", off)
	}
	payload := append(append([]byte(key), body...), trace...)
	end := off + recHdrSize + int64(len(payload))
	if end > int64(len(data)) || !bytes.Equal(data[off+recHdrSize:end], payload) {
		t.Fatalf("record at %d is not the bytes stored there", off)
	}
	if crc32.Checksum(payload, crcTable) != binary.BigEndian.Uint32(data[off+12:]) {
		t.Fatalf("record at %d was returned although its CRC fails", off)
	}
}

// reseal rewrites the footer's region checksums to match data, when the
// footer's index offset is in range, so that mutated records get past
// openSegment's region checks to the per-record ones.
func reseal(data []byte) {
	if len(data) < headerSize+footerSize {
		return
	}
	foot := data[len(data)-footerSize:]
	indexOffset := binary.BigEndian.Uint64(foot[0:])
	if indexOffset < headerSize || indexOffset > uint64(len(data)-footerSize) {
		return
	}
	binary.BigEndian.PutUint32(foot[16:], crc32.Checksum(data[:indexOffset], crcTable))
	binary.BigEndian.PutUint32(foot[20:], crc32.Checksum(data[indexOffset:len(data)-footerSize], crcTable))
}

// FuzzSegment feeds arbitrary bytes to the segment decoder as a segment
// file, optionally with region checksums that match, and to indexRecords
// with an arbitrary record count. Neither may panic, and every record a
// segment that opened returns, by key or by scan, must be the bytes stored
// at its offset with a passing record CRC.
func FuzzSegment(f *testing.F) {
	many := make([]record, 20)
	for i := range many {
		many[i] = record{key: fmt.Sprintf("key-%02d", i), body: bytes.Repeat([]byte{byte(i)}, i), trace: []byte("t")}
	}
	for _, recs := range [][]record{nil, {{key: "k", body: []byte("body")}}, many} {
		data := segmentBytes(f, recs)
		f.Add(data, uint32(len(recs)), false)
		f.Add(data[:len(data)-1], uint32(len(recs)), false)
		flipped := bytes.Clone(data)
		flipped[len(flipped)/2] ^= 0x40
		f.Add(flipped, uint32(len(recs)+1), true)
	}
	// Inputs run one at a time in each fuzzing process, so they can share
	// one file.
	path := filepath.Join(f.TempDir(), segName(1))
	f.Fuzz(func(t *testing.T, data []byte, count uint32, sealed bool) {
		if sealed {
			reseal(data)
		}
		index, err := indexRecords(bufio.NewReader(bytes.NewReader(data)), int64(len(data)), int(count))
		if err == nil {
			for key, off := range index {
				if off < headerSize || off+recHdrSize+int64(len(key)) > int64(len(data)) ||
					string(data[off+recHdrSize:off+recHdrSize+int64(len(key))]) != key {
					t.Fatalf("indexRecords maps %q to %d, which does not hold it", key, off)
				}
			}
		}

		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		s, err := openSegment(path)
		if err != nil {
			return
		}
		defer s.close()
		for key, off := range s.index {
			body, trace, found, err := s.get(key)
			if err != nil {
				continue
			}
			if !found {
				t.Fatalf("indexed key %q not found", key)
			}
			checkRecordAt(t, data, off, key, body, trace)
		}
		off := int64(headerSize)
		s.scan(func(r record) {
			checkRecordAt(t, data, off, r.key, r.body, r.trace)
			off += recHdrSize + int64(len(r.key)+len(r.body)+len(r.trace))
		})
	})
}
