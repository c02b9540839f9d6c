package server

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/experiments"
)

// oracleKey is the cache key as it was first defined: SHA-256 over the
// canonical JSON. canonical.key must make exactly the same equal/distinct
// decisions, which FuzzCanonicalRequest checks.
func oracleKey(t testing.TB, c canonical) string {
	t.Helper()
	b, err := json.Marshal(c)
	if err != nil {
		t.Fatalf("oracle marshal: %v", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// decodeRun decodes body under the server's own strict rules.
func decodeRun(body []byte) (RunRequest, error) {
	dec := json.NewDecoder(bytes.NewReader(body))
	dec.DisallowUnknownFields()
	var req RunRequest
	err := dec.Decode(&req)
	return req, err
}

// respellings renders req in other spellings that must keep its key: keys
// in a different order, null faults and arrivals, every default spelled
// out, and the async delivery flag.
func respellings(t testing.TB, req RunRequest) [][]byte {
	t.Helper()
	base := map[string]any{"id": req.ID}
	if req.SF != 0 {
		base["sf"] = req.SF
	}
	for name, on := range map[string]bool{"quick": req.Quick, "metrics": req.Metrics, "trace": req.Trace} {
		if on {
			base[name] = true
		}
	}
	for name, raw := range map[string]json.RawMessage{"machine": req.Machine, "faults": req.Faults, "arrivals": req.Arrivals} {
		if len(raw) > 0 {
			base[name] = raw
		}
	}
	variants := []func(m map[string]any){
		func(m map[string]any) {}, // reordered: encoding/json sorts map keys
		func(m map[string]any) {
			for _, name := range []string{"faults", "arrivals"} {
				if _, ok := m[name]; !ok {
					m[name] = nil
				}
			}
		},
		func(m map[string]any) {
			if _, ok := m["sf"]; !ok {
				m["sf"] = experiments.DefaultConfig().SF
			}
			for _, name := range []string{"quick", "metrics", "trace"} {
				if _, ok := m[name]; !ok {
					m[name] = false
				}
			}
		},
		func(m map[string]any) { m["async"] = true },
	}
	var out [][]byte
	for _, v := range variants {
		m := make(map[string]any, len(base)+4)
		for k, x := range base {
			m[k] = x
		}
		v(m)
		b, err := json.Marshal(m)
		if err != nil {
			t.Fatalf("respell: %v", err)
		}
		out = append(out, b)
	}
	return out
}

// FuzzCanonicalRequest drives KeyForRequest with arbitrary pairs of bodies.
// It must never panic; two canonical requests share a key exactly when
// their canonical JSON (the oracle) is equal; and respelling a request
// never changes its key.
func FuzzCanonicalRequest(f *testing.F) {
	for _, pair := range [][2]string{
		{`{"id":"fig04"}`, `{"id":"fig04","sf":0.1,"quick":false}`},
		{`{"id":"fig04","quick":true,"sf":0.02}`, `{"sf":0.02,"quick":true,"id":"fig04","async":true}`},
		{`{"id":"fig04","machine":{"PrefetcherEnabled":false}}`, `{"id":"fig04","machine":{}}`},
		{`{"id":"fig05","machine":{"PrefetchWasteFactor":0.5,"GroupedWriteWindowFactor":3.05}}`, `{"id":"fig05","machine":{"PrefetchWasteFactor":-0}}`},
		{`{"id":"fig04","faults":{"events":[]}}`, `{"id":"fig04","faults":null}`},
		{`{"id":"fig04","faults":{"seed":3,"events":[{"type":"channel-offline","start":0,"socket":0,"channels":1}]}}`, `{"id":"fig04","machine":{"Faults":{"events":[]}}}`},
		{`{"id":"serve01","arrivals":{"seed":7,"horizon":2,"clients":[{"name":"cli","rate_qps":4,"slo_seconds":0.5,"queries":[{"kind":"probe"},{"kind":"scan-s"}]}]}}`, `{"id":"serve01","arrivals":null}`},
		{`{"id":"fig04","trace":true,"metrics":true}`, `{"id":"fig04","trace":true}`},
		{`{"id":"nope"}`, `{"id":"fig04","sf":-1}`},
	} {
		f.Add(pair[0], pair[1])
	}
	// Identical pairs of rich requests: a mutation of either side is a near
	// miss that only a key covering every field tells apart.
	for _, body := range []string{
		`{"id":"fig04","quick":true,"sf":0.02,"metrics":true,"trace":true,"machine":{"PrefetchWasteFactor":0.5,"GroupedWriteWindowFactor":3.05}}`,
		`{"id":"fig04","faults":{"seed":3,"events":[{"type":"dimm-throttle","start":0.5,"duration":2,"socket":1,"ramp":0.25,"factor":0.3}]}}`,
		`{"id":"serve01","arrivals":{"seed":7,"horizon":2,"slots":2,"scheduler":"sjf","clients":[{"name":"cli","rate_qps":4,"slo_seconds":0.5,"queries":[{"kind":"probe"},{"kind":"scan-s"}]}]}}`,
	} {
		f.Add(body, body)
	}
	f.Fuzz(func(t *testing.T, a, b string) {
		type keyed struct{ key, oracle string }
		var got []keyed
		for _, body := range []string{a, b} {
			req, err := decodeRun([]byte(body))
			if err != nil {
				continue
			}
			key, err := KeyForRequest(req, 1)
			if err != nil {
				continue
			}
			c, err := req.canonicalize(1)
			if err != nil {
				t.Fatalf("KeyForRequest accepted %q but canonicalize fails: %v", body, err)
			}
			if len(key) != 2*sha256.Size {
				t.Fatalf("key %q is not %d hex characters", key, 2*sha256.Size)
			}
			got = append(got, keyed{key, oracleKey(t, c)})
			for _, rb := range respellings(t, req) {
				rreq, err := decodeRun(rb)
				if err != nil {
					t.Fatalf("respelling %s of %q does not decode: %v", rb, body, err)
				}
				rkey, err := KeyForRequest(rreq, 1)
				if err != nil {
					t.Fatalf("respelling %s of %q fails: %v", rb, body, err)
				}
				if rkey != key {
					t.Fatalf("respelling %s of %q changed the key", rb, body)
				}
			}
		}
		if len(got) == 2 && (got[0].key == got[1].key) != (got[0].oracle == got[1].oracle) {
			t.Fatalf("%q and %q: keys equal %v, canonical JSON equal %v",
				a, b, got[0].key == got[1].key, got[0].oracle == got[1].oracle)
		}
	})
}

// TestCanonicalKeyCoversEveryField changes each scalar the key encodes,
// one at a time, in a canonical request that populates the machine
// config, a fault plan and an arrival spec: every change must change the
// key, as it changes the canonical JSON. A field the encoding skipped would
// alias requests that differ only there.
func TestCanonicalKeyCoversEveryField(t *testing.T) {
	c := mustCanonical(t, `{"id":"serve01","sf":0.02,"quick":true,
		"faults":{"seed":3,"events":[{"type":"dimm-throttle","start":0.5,"duration":2,"socket":1,"ramp":0.25,"factor":0.3}]},
		"arrivals":{"seed":7,"horizon":2,"slots":2,"scheduler":"sjf","admission":{"policy":"token-bucket","rate_qps":5,"burst":2},
			"clients":[{"name":"cli","rate_qps":4,"slo_seconds":0.5,"queries":[{"kind":"probe"},{"kind":"scan-s"}]}]}}`)
	base, baseOracle := c.key(), oracleKey(t, c)
	fields := 0
	var walk func(v reflect.Value, path string)
	walk = func(v reflect.Value, path string) {
		switch v.Kind() {
		case reflect.Pointer:
			if !v.IsNil() {
				walk(v.Elem(), path)
			}
			return
		case reflect.Slice, reflect.Array:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i), fmt.Sprintf("%s[%d]", path, i))
			}
			return
		case reflect.Struct:
			// The fields encoding/json writes, listed without keyPlan.
			for i := 0; i < v.NumField(); i++ {
				if f := v.Type().Field(i); f.IsExported() && f.Tag.Get("json") != "-" {
					walk(v.Field(i), path+"."+f.Name)
				}
			}
			return
		}
		old := reflect.New(v.Type()).Elem()
		old.Set(v)
		switch v.Kind() {
		case reflect.Bool:
			v.SetBool(!v.Bool())
		case reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64:
			v.SetInt(v.Int() + 1)
		case reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uintptr:
			v.SetUint(v.Uint() + 1)
		case reflect.Float32, reflect.Float64:
			v.SetFloat(v.Float() + 0.5)
		case reflect.String:
			v.SetString(v.String() + "x")
		}
		fields++
		if oracleKey(t, c) == baseOracle {
			t.Errorf("%s: changing it leaves the canonical JSON unchanged", path)
		} else if c.key() == base {
			t.Errorf("%s: changing it leaves the key unchanged", path)
		}
		v.Set(old)
	}
	walk(reflect.ValueOf(&c).Elem(), "canonical")
	if c.key() != base {
		t.Fatal("walk did not restore the request")
	}
	if fields < 50 {
		t.Errorf("walked %d fields; the request should populate far more", fields)
	}
}

// TestCanonicalKeyAllocs caps the allocations of one key derivation: the
// request copy the encoder reflects over and the returned string.
func TestCanonicalKeyAllocs(t *testing.T) {
	c := mustCanonical(t, `{"id":"fig04","quick":true,"machine":{"PrefetchWasteFactor":0.5}}`)
	c.key() // build the per-type field plans outside the measurement
	if n := testing.AllocsPerRun(100, func() { c.key() }); n > 4 {
		t.Errorf("canonical.key() allocates %v times per call, cap 4", n)
	}
}

// TestKeyPlanRejectsUnencodableKinds: a map, interface or embedded field
// makes the plan panic instead of being skipped or aliased.
func TestKeyPlanRejectsUnencodableKinds(t *testing.T) {
	type inner struct{ X int }
	for name, v := range map[string]any{
		"map":       struct{ M map[string]int }{},
		"interface": struct{ I any }{},
		"embedded":  struct{ inner }{},
		"nested":    struct{ P *struct{ F func() } }{},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: keyPlan did not panic", name)
				}
			}()
			keyPlan(reflect.TypeOf(v))
		}()
	}
}

// TestKeyEncodingMirrorsJSON pins the folds and distinctions the encoding
// shares with encoding/json: unexported and json:"-" fields are skipped,
// omitempty folds 0 with -0 and nil with empty, a plain field keeps nil
// and empty slices apart, and length prefixes keep strings from running
// together.
func TestKeyEncodingMirrorsJSON(t *testing.T) {
	type rec struct {
		A      string
		B      string
		F      float64 `json:",omitempty"`
		S      []int   `json:",omitempty"`
		Plain  []int   `json:"plain"`
		Hidden int     `json:"-"`
		hidden int
		P      *float64
	}
	enc := func(r rec) string { return string(appendKeyValue(nil, reflect.ValueOf(r))) }
	js := func(r rec) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}
	negZero, zero := 0.0, 0.0
	negZero = -negZero
	pairs := [][2]rec{
		{{F: 0}, {F: negZero}},
		{{S: nil}, {S: []int{}}},
		{{Plain: nil}, {Plain: []int{}}},
		{{A: "ab", B: "c"}, {A: "a", B: "bc"}},
		{{Hidden: 1, hidden: 2}, {}},
		{{P: nil}, {P: &zero}},
		{{P: &zero}, {P: &negZero}},
		{{F: 1}, {F: 2}},
	}
	for _, p := range pairs {
		if (enc(p[0]) == enc(p[1])) != (js(p[0]) == js(p[1])) {
			t.Errorf("%+v vs %+v: encoding equal %v, JSON equal %v",
				p[0], p[1], enc(p[0]) == enc(p[1]), js(p[0]) == js(p[1]))
		}
	}
}

func BenchmarkCanonicalKey(b *testing.B) {
	c := mustCanonical(b, `{"id":"fig04","quick":true,"machine":{"PrefetchWasteFactor":0.5}}`)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.key()
	}
}
