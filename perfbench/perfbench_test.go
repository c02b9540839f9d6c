package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"runtime/pprof"
	"sync"
	"testing"
	"time"

	"repro/internal/machine"
	"repro/internal/server"
)

func sweepPoints(seed int64, n int) []int {
	p := newSweepPlan(seed)
	out := make([]int, n)
	for i := range out {
		out[i] = p.next()
	}
	return out
}

func TestSweepPlanIsSeeded(t *testing.T) {
	a, b, c := sweepPoints(1, 500), sweepPoints(1, 500), sweepPoints(2, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different point lists")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same point list")
	}
	faulted := 0
	for _, idx := range a {
		if idx < 0 || idx >= gridSize {
			t.Fatalf("point %d outside the grid", idx)
		}
		if _, f := gridPoint(idx); f {
			faulted++
		}
	}
	if faulted == 0 || faulted == len(a) {
		t.Fatalf("%d of %d points faulted, want a share", faulted, len(a))
	}
}

// Within one sweep consecutive points differ in exactly the walked axis.
func TestSweepWalksOneAxis(t *testing.T) {
	p := newSweepPlan(3)
	for s := 0; s < 50; s++ {
		p.next()
		walk := append([]int(nil), p.queue...)
		for i := 1; i < len(walk); i++ {
			x, y := gridCoords(walk[i-1]), gridCoords(walk[i])
			diff := 0
			for ax := range x {
				if x[ax] != y[ax] {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("sweep %d: consecutive points differ in %d axes", s, diff)
			}
		}
		for len(p.queue) > 0 {
			p.next()
		}
	}
}

func TestAnchorsAreGridPoints(t *testing.T) {
	digests, err := loadSweepDigests()
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range val01Anchors {
		idx := gridIndex(a.c)
		res, err := measurePoint(idx, machine.DefaultConfig(), faultedConfig())
		if err != nil {
			t.Fatal(err)
		}
		if bandwidthDigest(res.Bandwidth) != digests[idx] {
			t.Fatalf("anchor %v: bandwidth does not match its digest", a.c)
		}
	}
}

func requests(seed int64, n int) []request {
	g := newReqGen(seed)
	_, reqs := g.schedule(float64(n), time.Second)
	return reqs
}

func TestRequestStreamIsSeeded(t *testing.T) {
	a, b, c := requests(1, 2000), requests(1, 2000), requests(2, 2000)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed gave different request sequences")
	}
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds gave the same request sequence")
	}
}

// Every spelling of a key canonicalizes to the same cache key, and distinct
// keys to distinct cache keys.
func TestRespellingsShareACanonicalKey(t *testing.T) {
	seen := map[string]int{}
	for _, key := range []int{0, 1, 17, 18, 5000, serveKeys - 1} {
		var first string
		for variant := 0; variant < 3; variant++ {
			var req server.RunRequest
			dec := json.NewDecoder(bytes.NewReader(request{key: key, variant: variant}.body()))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&req); err != nil {
				t.Fatalf("key %d variant %d: %v", key, variant, err)
			}
			k, err := server.KeyForRequest(req, 1)
			if err != nil {
				t.Fatal(err)
			}
			if variant == 0 {
				first = k
			} else if k != first {
				t.Fatalf("key %d: variant %d has cache key %s, canonical %s", key, variant, k, first)
			}
		}
		if other, ok := seen[first]; ok {
			t.Fatalf("keys %d and %d share a cache key", other, key)
		}
		seen[first] = key
	}
}

func TestFlippedBodyIsAFailure(t *testing.T) {
	body := []byte(`{"id":"fig04","tables":[]}`)
	sum := sha256.Sum256(body)
	sha := hex.EncodeToString(sum[:])
	var seen sync.Map
	if msg := checkResponse(7, 200, sha, body, &seen); msg != "" {
		t.Fatalf("good response flagged: %s", msg)
	}
	flipped := append([]byte(nil), body...)
	flipped[3] ^= 0x01
	if msg := checkResponse(7, 200, sha, flipped, &seen); msg == "" {
		t.Fatal("body not matching its content hash was accepted")
	}
	fsum := sha256.Sum256(flipped)
	if msg := checkResponse(7, 200, hex.EncodeToString(fsum[:]), flipped, &seen); msg == "" {
		t.Fatal("different bytes for one canonical key were accepted")
	}
	if msg := checkResponse(8, 503, sha, body, &seen); msg == "" {
		t.Fatal("non-2xx response was accepted")
	}
}

func TestSmallServeRunReachesEveryTier(t *testing.T) {
	if testing.Short() {
		t.Skip("boots a fleet")
	}
	inst, err := setupServe(5, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer inst.close()
	o, err := inst.run(2*time.Second, newSpans())
	if err != nil {
		t.Fatal(err)
	}
	if o.failed != 0 {
		t.Fatalf("%d of %d requests failed", o.failed, o.attempted)
	}
	for _, tier := range []string{"hit", "disk", "miss"} {
		if o.layer["server."+tier+"_ratio"] == 0 {
			t.Errorf("no %s responses in %d requests", tier, o.attempted)
		}
	}
}

func TestSelfTimeSubtractsChildren(t *testing.T) {
	ms := time.Millisecond
	list := []span{
		{name: "root", start: 0, end: 10 * ms, parent: -1},
		{name: "a", start: 1 * ms, end: 4 * ms, parent: 0},
		{name: "b", start: 3 * ms, end: 6 * ms, parent: 0}, // overlaps a
		{name: "c", start: 8 * ms, end: 9 * ms, parent: 0},
	}
	self := selfTimes(list)
	if want := 4 * ms; self[0] != want {
		t.Fatalf("root self time %v, want %v", self[0], want)
	}
	if self[1] != 3*ms {
		t.Fatalf("leaf self time %v, want its duration", self[1])
	}
}

func TestCPUSharesFromProfile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		t.Fatal(err)
	}
	healthy, faulted := machine.DefaultConfig(), faultedConfig()
	plan := newSweepPlan(1)
	for start := time.Now(); time.Since(start) < 500*time.Millisecond; {
		if _, err := measurePoint(plan.next(), healthy, faulted); err != nil {
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	f.Close()
	shares, err := cpuShares(path)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, v := range shares {
		total += v
	}
	if total > 1+1e-9 {
		t.Fatalf("shares sum to %g", total)
	}
	if shares["machine"]+shares["fluid"]+shares["core"] == 0 {
		t.Fatalf("no samples attributed to the simulator: %v", shares)
	}
}
