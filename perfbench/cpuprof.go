package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"errors"
	"io"
	"os"
	"strings"
)

// sharePackages are the packages whose CPU share the traced run reports,
// keyed by the metric suffix (cpu_share.<key>).
var sharePackages = map[string]string{
	"repro/internal/fluid":    "fluid",
	"repro/internal/machine":  "machine",
	"repro/internal/core":     "core",
	"repro/internal/ssb":      "ssb",
	"repro/internal/naive":    "naive",
	"repro/internal/aware":    "aware",
	"repro/internal/server":   "server",
	"repro/internal/sstcache": "sstcache",
	"repro/internal/fleet":    "fleet",
	"repro/internal/doctor":   "doctor",
	"net/http":                "nethttp",
}

// gcFrame reports whether a runtime function belongs to the garbage
// collector (background marking, mark assists, sweeping, scavenging).
func gcFrame(fn string) bool {
	for _, p := range []string{"runtime.gc", "runtime.bgsweep", "runtime.bgscavenge", "runtime.markroot",
		"runtime.scanobject", "runtime.(*sweepLocked).sweep", "runtime.(*mheap).reclaim"} {
		if strings.HasPrefix(fn, p) {
			return true
		}
	}
	return false
}

// funcPackage returns the import path of a symbol name as pprof prints it,
// e.g. "repro/internal/fluid" for "repro/internal/fluid.(*Engine).Run".
func funcPackage(fn string) string {
	slash := strings.LastIndexByte(fn, '/')
	dot := strings.IndexByte(fn[slash+1:], '.')
	if dot < 0 {
		return fn
	}
	return fn[:slash+1+dot]
}

// cpuShares reads a CPU profile written by runtime/pprof and returns the
// share of samples attributed to each key of sharePackages by the leaf
// frame, plus "gc" for samples with a garbage-collector frame anywhere on
// the stack (those are not also counted under their leaf package).
func cpuShares(path string) (map[string]float64, error) {
	raw, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	p, err := parseProfile(raw)
	if err != nil {
		return nil, err
	}
	counts := map[string]int64{"gc": 0}
	for _, k := range sharePackages {
		counts[k] = 0
	}
	var total int64
	for _, s := range p.samples {
		if len(s.locs) == 0 || len(s.values) == 0 {
			continue
		}
		n := s.values[0]
		total += n
		gc := false
		for _, loc := range s.locs {
			for _, fn := range p.locFuncs[loc] {
				if gcFrame(fn) {
					gc = true
				}
			}
		}
		if gc {
			counts["gc"] += n
			continue
		}
		if leaf := p.locFuncs[s.locs[0]]; len(leaf) > 0 {
			if key, ok := sharePackages[funcPackage(leaf[0])]; ok {
				counts[key] += n
			}
		}
	}
	out := map[string]float64{}
	for k, c := range counts {
		out[k] = ratio(float64(c), float64(total))
	}
	return out, nil
}

type profSample struct {
	locs   []uint64
	values []int64
}

// profile is the part of a pprof profile the share computation needs:
// samples, and for every location the function names of its frames,
// innermost first.
type profile struct {
	samples  []profSample
	locFuncs map[uint64][]string
}

// parseProfile decodes the gzipped protocol-buffer profile format
// (github.com/google/pprof/proto/profile.proto) far enough to attribute
// samples to functions.
func parseProfile(raw []byte) (*profile, error) {
	zr, err := gzip.NewReader(bytes.NewReader(raw))
	if err != nil {
		return nil, err
	}
	data, err := io.ReadAll(zr)
	if err != nil {
		return nil, err
	}
	var strs []string
	funcName := map[uint64]int64{} // function id -> string index
	locLines := map[uint64][]uint64{}
	var samples []profSample
	err = eachField(data, func(field int, wire int, v uint64, b []byte) error {
		switch field {
		case 2: // sample
			var s profSample
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					s.locs = appendVarints(s.locs, w, v, b)
				case 2:
					for _, x := range appendVarints(nil, w, v, b) {
						s.values = append(s.values, int64(x))
					}
				}
				return nil
			})
			samples = append(samples, s)
			return err
		case 4: // location
			var id uint64
			var fns []uint64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 4: // line
					return eachField(b, func(f, w int, v uint64, b []byte) error {
						if f == 1 {
							fns = append(fns, v)
						}
						return nil
					})
				}
				return nil
			})
			locLines[id] = fns
			return err
		case 5: // function
			var id uint64
			var name int64
			err := eachField(b, func(f, w int, v uint64, b []byte) error {
				switch f {
				case 1:
					id = v
				case 2:
					name = int64(v)
				}
				return nil
			})
			funcName[id] = name
			return err
		case 6: // string_table
			strs = append(strs, string(b))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	p := &profile{samples: samples, locFuncs: map[uint64][]string{}}
	for id, fns := range locLines {
		for _, fn := range fns {
			if i := funcName[fn]; i >= 0 && int(i) < len(strs) {
				p.locFuncs[id] = append(p.locFuncs[id], strs[i])
			}
		}
	}
	return p, nil
}

// appendVarints appends a repeated integer field, packed (wire type 2) or
// not.
func appendVarints(dst []uint64, wire int, v uint64, b []byte) []uint64 {
	if wire != 2 {
		return append(dst, v)
	}
	for len(b) > 0 {
		x, n := binary.Uvarint(b)
		if n <= 0 {
			break
		}
		dst = append(dst, x)
		b = b[n:]
	}
	return dst
}

var errBadProto = errors.New("malformed profile")

// eachField walks one protocol-buffer message, calling fn with each field's
// number, wire type, and its varint value or length-delimited bytes.
func eachField(data []byte, fn func(field, wire int, v uint64, b []byte) error) error {
	for len(data) > 0 {
		key, n := binary.Uvarint(data)
		if n <= 0 {
			return errBadProto
		}
		data = data[n:]
		field, wire := int(key>>3), int(key&7)
		var v uint64
		var b []byte
		switch wire {
		case 0:
			v, n = binary.Uvarint(data)
			if n <= 0 {
				return errBadProto
			}
			data = data[n:]
		case 1:
			if len(data) < 8 {
				return errBadProto
			}
			data = data[8:]
		case 2:
			l, n := binary.Uvarint(data)
			if n <= 0 || uint64(len(data)-n) < l {
				return errBadProto
			}
			b = data[n : n+int(l)]
			data = data[n+int(l):]
		case 5:
			if len(data) < 4 {
				return errBadProto
			}
			data = data[4:]
		default:
			return errBadProto
		}
		if err := fn(field, wire, v, b); err != nil {
			return err
		}
	}
	return nil
}
