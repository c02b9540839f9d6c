// Package server is pmemd's serving subsystem: an HTTP/JSON facade over the
// calibrated machine simulation. Because the simulation is fully
// deterministic — the same canonical request always produces the same bytes
// — the server is built around a content-addressed result cache: requests
// are canonicalized, hashed, and answered from memory whenever the same
// question has been asked before, with concurrent identical submissions
// coalesced onto a single simulation. A bounded admission queue (429 +
// Retry-After when full) and a shared experiments.Pool keep the simulation
// load on the host fixed no matter how much traffic arrives.
package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"sync"

	"repro/internal/doctor"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/queueing"
)

// RunRequest is the body of POST /v1/run: one experiment, optionally on an
// ad-hoc machine model.
type RunRequest struct {
	// ID selects the experiment (see GET /v1/experiments).
	ID string `json:"id"`
	// SF is the scale factor the SSB engines execute at; 0 means the
	// repository default (0.1). Bounded by the server's -max-sf.
	SF float64 `json:"sf,omitempty"`
	// Quick trims sweep axes for fast smoke runs.
	Quick bool `json:"quick,omitempty"`
	// Metrics includes the experiment's simulation-counter snapshot in the
	// result.
	Metrics bool `json:"metrics,omitempty"`
	// Trace records the experiment's simulated-time timeline; fetch it as
	// Chrome trace-event JSON at GET /v1/jobs/{id}/trace (the job id comes
	// back in the X-Pmemd-Job header / the async job handle).
	Trace bool `json:"trace,omitempty"`
	// Machine overrides the calibrated machine model. Fields absent from
	// the document keep the calibrated defaults (the machine.ConfigFromJSON
	// contract), so a what-if request only spells the knobs it changes.
	Machine json.RawMessage `json:"machine,omitempty"`
	// Faults attaches a deterministic fault plan (see internal/faults) to
	// the run's machines. The canonicalized plan becomes part of the machine
	// config — and therefore of the cache key — so degraded results never
	// alias healthy ones. Takes precedence over a plan spelled inside
	// Machine.
	Faults json.RawMessage `json:"faults,omitempty"`
	// Arrivals attaches a serving traffic spec (see internal/queueing) to
	// the run: the serve0x experiments draw their arrival processes,
	// admission policy, and scheduler from it instead of the built-in
	// scenario. Canonicalized exactly like Faults — the normalized spec is
	// part of the cache key, so two spellings of the same scenario share a
	// cache entry and different scenarios never alias.
	Arrivals json.RawMessage `json:"arrivals,omitempty"`
	// Async makes POST /v1/run return 202 + a job handle immediately
	// instead of waiting for the result. Not part of the cache identity.
	Async bool `json:"async,omitempty"`
}

// canonical is the canonicalized request: defaults applied and the machine
// config fully resolved. Two requests that differ only in JSON key order,
// whitespace, explicitly-spelled default fields, or delivery options (Async)
// canonicalize to the same bytes — and therefore the same cache key.
type canonical struct {
	ID      string         `json:"id"`
	SF      float64        `json:"sf"`
	Quick   bool           `json:"quick"`
	Metrics bool           `json:"metrics"`
	Trace   bool           `json:"trace"`
	Machine machine.Config `json:"machine"`
	// Arrivals is the normalized serving spec (nil when the request did not
	// override the built-in traffic, so plain requests keep their keys).
	Arrivals *queueing.Spec `json:"arrivals,omitempty"`
}

// canonicalize validates the request and resolves every default. maxSF <= 0
// means unbounded.
func (r RunRequest) canonicalize(maxSF float64) (canonical, error) {
	c := canonical{ID: r.ID, SF: r.SF, Quick: r.Quick, Metrics: r.Metrics, Trace: r.Trace}
	if c.ID == "" {
		return c, fmt.Errorf("missing experiment id (see GET /v1/experiments)")
	}
	if _, err := experiments.ByID(c.ID); err != nil {
		return c, err
	}
	if c.SF == 0 {
		c.SF = experiments.DefaultConfig().SF
	}
	if c.SF < 0 {
		return c, fmt.Errorf("sf must be positive, got %g", c.SF)
	}
	if maxSF > 0 && c.SF > maxSF {
		return c, fmt.Errorf("sf %g exceeds this server's limit %g", c.SF, maxSF)
	}
	c.Machine = machine.DefaultConfig()
	if len(r.Machine) > 0 {
		mc, err := machine.ConfigFromJSON(bytes.NewReader(r.Machine))
		if err != nil {
			return c, err
		}
		c.Machine = mc
	}
	if len(r.Faults) > 0 && !isJSONNull(r.Faults) {
		plan, err := faults.Parse(r.Faults)
		if err != nil {
			return c, fmt.Errorf("bad fault plan: %w", err)
		}
		c.Machine.Faults = plan
	}
	if len(r.Arrivals) > 0 && !isJSONNull(r.Arrivals) {
		spec, err := queueing.ParseSpec(r.Arrivals)
		if err != nil {
			return c, fmt.Errorf("bad arrival spec: %w", err)
		}
		c.Arrivals = spec
	}
	// Nil-elide a fault plan with no events (spelled directly or inside the
	// machine override): it schedules nothing, so it must key exactly like
	// its absence — otherwise respelled requests would miss the cache and,
	// worse, affinity-route to a different fleet worker.
	if c.Machine.Faults != nil && len(c.Machine.Faults.Events) == 0 {
		c.Machine.Faults = nil
	}
	return c, nil
}

// isJSONNull reports whether raw is the JSON null literal — a spelled-out
// "faults": null or "arrivals": null means the same as omitting the field,
// and must canonicalize (and cache-key) identically.
func isJSONNull(raw json.RawMessage) bool {
	return string(bytes.TrimSpace(raw)) == "null"
}

// key is the content address: SHA-256 over a compact binary encoding of the
// canonical struct (see appendKeyValue), as 64 lowercase hex characters.
// The canonical struct holds fully resolved values in a fixed field order,
// so the key is a pure function of the request's meaning. The encoding
// distinguishes exactly the values encoding/json does — the same fields,
// null vs empty, omitempty folding — so two requests share a key exactly
// when their canonical JSON would be equal, at a fraction of the cost.
func (c canonical) key() string {
	var buf [1024]byte
	sum := sha256.Sum256(appendKeyValue(buf[:0], reflect.ValueOf(&c).Elem()))
	var hexSum [2 * sha256.Size]byte
	hex.Encode(hexSum[:], sum[:])
	return string(hexSum[:])
}

// keyField is one encoded field of a struct type: its index and whether
// its json tag says omitempty.
type keyField struct {
	index     int
	omitEmpty bool
}

// keyPlans caches each struct type's encoded fields (reflect.Type ->
// []keyField), built once per type.
var keyPlans sync.Map

// keyPlan returns t's encoded fields: the exported fields without a
// json:"-" tag, in declaration order — the fields encoding/json writes. It
// panics on a field type appendKeyValue cannot encode (maps, interfaces,
// funcs, channels, complex numbers) or an embedded field, whose promotion
// rules the encoding does not mirror: such a field must fail tests rather
// than let two different requests share a key.
func keyPlan(t reflect.Type) []keyField {
	if p, ok := keyPlans.Load(t); ok {
		return p.([]keyField)
	}
	var plan []keyField
	for i := 0; i < t.NumField(); i++ {
		f := t.Field(i)
		if f.Anonymous {
			panic(fmt.Sprintf("server: cache key cannot encode embedded field %s.%s", t, f.Name))
		}
		tag := f.Tag.Get("json")
		if !f.IsExported() || tag == "-" {
			continue
		}
		checkKeyType(f.Type)
		_, opts, _ := strings.Cut(tag, ",")
		plan = append(plan, keyField{index: i, omitEmpty: slices.Contains(strings.Split(opts, ","), "omitempty")})
	}
	keyPlans.Store(t, plan)
	return plan
}

// checkKeyType panics unless appendKeyValue can encode every value of t.
func checkKeyType(t reflect.Type) {
	switch t.Kind() {
	case reflect.Bool, reflect.String, reflect.Float32, reflect.Float64,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
	case reflect.Pointer, reflect.Slice, reflect.Array:
		checkKeyType(t.Elem())
	case reflect.Struct:
		keyPlan(t)
	default:
		panic(fmt.Sprintf("server: cache key cannot encode %s (kind %s)", t, t.Kind()))
	}
}

// appendKeyValue appends v's key encoding to b. Integers are varints,
// floats their IEEE-754 bits, strings and slices length-prefixed, and
// pointers and slices carry a presence byte (nil marshals to JSON null,
// distinct from an empty value). An omitempty field whose value
// encoding/json would drop is a single absent byte, so the fold JSON makes
// there (0 and -0, nil and empty) is made here too. The encoding is
// prefix-free for a fixed type, so distinct values never collide.
func appendKeyValue(b []byte, v reflect.Value) []byte {
	switch v.Kind() {
	case reflect.Bool:
		if v.Bool() {
			return append(b, 1)
		}
		return append(b, 0)
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return binary.AppendVarint(b, v.Int())
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return binary.AppendUvarint(b, v.Uint())
	case reflect.Float32, reflect.Float64:
		return binary.BigEndian.AppendUint64(b, math.Float64bits(v.Float()))
	case reflect.String:
		s := v.String()
		return append(binary.AppendUvarint(b, uint64(len(s))), s...)
	case reflect.Pointer:
		if v.IsNil() {
			return append(b, 0)
		}
		return appendKeyValue(append(b, 1), v.Elem())
	case reflect.Slice:
		if v.IsNil() {
			return append(b, 0)
		}
		b = binary.AppendUvarint(append(b, 1), uint64(v.Len()))
		for i := 0; i < v.Len(); i++ {
			b = appendKeyValue(b, v.Index(i))
		}
		return b
	case reflect.Array:
		for i := 0; i < v.Len(); i++ {
			b = appendKeyValue(b, v.Index(i))
		}
		return b
	case reflect.Struct:
		for _, f := range keyPlan(v.Type()) {
			fv := v.Field(f.index)
			if f.omitEmpty {
				if jsonEmpty(fv) {
					b = append(b, 0)
					continue
				}
				b = append(b, 1)
			}
			b = appendKeyValue(b, fv)
		}
		return b
	}
	panic(fmt.Sprintf("server: cache key cannot encode %s (kind %s)", v.Type(), v.Kind()))
}

// jsonEmpty is encoding/json's omitempty test: false, 0, a nil pointer,
// and an empty string, slice or array are dropped; a struct never is.
func jsonEmpty(v reflect.Value) bool {
	switch v.Kind() {
	case reflect.Array, reflect.Slice, reflect.String:
		return v.Len() == 0
	case reflect.Bool:
		return !v.Bool()
	case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
		return v.Int() == 0
	case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
		return v.Uint() == 0
	case reflect.Float32, reflect.Float64:
		return v.Float() == 0
	case reflect.Pointer:
		return v.IsNil()
	}
	return false
}

// KeyForRequest canonicalizes req and returns its SHA-256 cache key (64 hex
// characters over the canonical binary encoding, see canonical.key) — the
// exact key a pmemd worker derives when serving the same request. The
// fleet router uses it for key-affinity routing, so identical requests
// (however respelled: field order, spelled defaults, nil-elided faults or
// arrivals) land on the worker that already holds the cached bytes. maxSF
// bounds validation only; it never influences the key (<= 0 = unbounded).
func KeyForRequest(req RunRequest, maxSF float64) (string, error) {
	c, err := req.canonicalize(maxSF)
	if err != nil {
		return "", err
	}
	return c.key(), nil
}

// experimentConfig translates the canonical request into the experiment
// runner's configuration. Jobs stays 1: request-level parallelism comes from
// the server's shared pool, not from fan-out inside one request.
func (c canonical) experimentConfig() experiments.Config {
	mc := c.Machine
	return experiments.Config{SF: c.SF, Quick: c.Quick, Jobs: 1, Machine: &mc, Arrivals: c.Arrivals}
}

// RunResult is the JSON payload served for a completed run. It carries no
// timestamps, host names, or serving-instance state, so it is byte-identical
// for identical canonical requests — cold, cached, or re-simulated at any
// worker width.
type RunResult struct {
	ID     string              `json:"id"`
	Title  string              `json:"title"`
	Tables []experiments.Table `json:"tables"`
	// Text is the aligned-text rendering of the tables — the same bytes the
	// experiments CLI prints for this experiment.
	Text    string            `json:"text"`
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Diagnosis is the doctor's verdict over the run's own evidence. It is
	// derived from the simulation snapshot (never from the request), rides
	// inside the cached body, and is served alone at
	// GET /v1/jobs/{id}/diagnosis — byte-identical cold, cached, or via the
	// fleet, because the body bytes are.
	Diagnosis *doctor.Diagnosis `json:"diagnosis,omitempty"`
}
