package fleet

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/server"
)

const quickBody = `{"id":"fig04","quick":true,"sf":0.02}`

// newWorkerServer boots a real pmemd serving subsystem as one fleet worker.
func newWorkerServer(t *testing.T, opts server.Options) (*server.Server, *httptest.Server) {
	t.Helper()
	if opts.MaxSF == 0 {
		opts.MaxSF = -1
	}
	s, err := server.New(opts)
	if err != nil {
		t.Fatalf("server.New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func newRouter(t *testing.T, opts Options) (*Router, *httptest.Server) {
	t.Helper()
	if opts.MaxSF == 0 {
		opts.MaxSF = -1
	}
	rt, err := New(opts)
	if err != nil {
		t.Fatalf("fleet.New: %v", err)
	}
	ts := httptest.NewServer(rt.Handler())
	t.Cleanup(ts.Close)
	return rt, ts
}

func postRun(t *testing.T, url, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(url+"/v1/run", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatalf("POST /v1/run: %v", err)
	}
	b, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatalf("read body: %v", err)
	}
	return resp, b
}

func routerCounter(t *testing.T, rt *Router, name string) float64 {
	t.Helper()
	v, _ := rt.Registry().Snapshot().Get(name)
	return v
}

// TestAffinityConsistentAcrossEntryPoints is the tentpole acceptance test:
// two router instances configured with the same workers in different list
// order must route an identical request to the same worker and return
// byte-identical bodies — and the second ask, whichever entry point takes
// it, is a cache hit on that worker.
func TestAffinityConsistentAcrossEntryPoints(t *testing.T) {
	_, w1 := newWorkerServer(t, server.Options{})
	_, w2 := newWorkerServer(t, server.Options{})
	workers := []Worker{{Name: "w1", URL: w1.URL}, {Name: "w2", URL: w2.URL}}
	reversed := []Worker{workers[1], workers[0]}

	rtA, tsA := newRouter(t, Options{Workers: workers})
	_, tsB := newRouter(t, Options{Workers: reversed})

	respA, bodyA := postRun(t, tsA.URL, quickBody)
	if respA.StatusCode != http.StatusOK {
		t.Fatalf("entry point A: status %d, body %s", respA.StatusCode, bodyA)
	}
	workerA := respA.Header.Get("X-Pmemfleet-Worker")
	if workerA == "" {
		t.Fatal("no X-Pmemfleet-Worker header")
	}
	if got := respA.Header.Get("X-Pmemd-Cache"); got != "miss" {
		t.Errorf("cold fleet request tier = %q, want miss", got)
	}

	respB, bodyB := postRun(t, tsB.URL, quickBody)
	if got := respB.Header.Get("X-Pmemfleet-Worker"); got != workerA {
		t.Errorf("entry point B routed to %q, entry point A to %q", got, workerA)
	}
	if got := respB.Header.Get("X-Pmemd-Cache"); got != "hit" {
		t.Errorf("second ask via other entry point tier = %q, want hit", got)
	}
	if string(bodyA) != string(bodyB) {
		t.Error("bodies differ across entry points")
	}

	// Repeats through either entry point stay on the same worker.
	for i := 0; i < 3; i++ {
		resp, body := postRun(t, tsA.URL, quickBody)
		if got := resp.Header.Get("X-Pmemfleet-Worker"); got != workerA {
			t.Errorf("repeat %d routed to %q, want %q", i, got, workerA)
		}
		if string(body) != string(bodyA) {
			t.Errorf("repeat %d body differs", i)
		}
	}
	if v := routerCounter(t, rtA, "fleet_tier_memory_hits"); v != 3 {
		t.Errorf("fleet_tier_memory_hits = %v, want 3", v)
	}
}

// TestRespelledRequestsShareKeyAndWorker pins the canonicalization
// contract across fleet hops (satellite): every respelling of the same
// request — field order, spelled defaults, empty machine override,
// JSON-null or event-less faults, JSON-null arrivals — must derive the
// same canonical key at the router, route to the same worker, and hit the
// cache entry the first spelling created.
func TestRespelledRequestsShareKeyAndWorker(t *testing.T) {
	base := `{"id":"fig04","quick":true,"sf":0.02}`
	respellings := []string{
		`{"sf":0.02,"quick":true,"id":"fig04"}`,                        // field order
		`{"id":"fig04","quick":true,"sf":0.02,"async":false}`,          // delivery option
		`{"id":"fig04","quick":true,"sf":0.02,"machine":{}}`,           // empty override
		`{"id":"fig04","quick":true,"sf":0.02,"faults":null}`,          // nil-elided plan
		`{"id":"fig04","quick":true,"sf":0.02,"arrivals":null}`,        // nil-elided spec
		`{"id":"fig04","quick":true,"sf":0.02,"metrics":false}`,        // spelled default
		`{"id":"fig04","faults":{"events":[]},"quick":true,"sf":0.02}`, // event-less plan
	}

	keyOf := func(body string) string {
		t.Helper()
		var req server.RunRequest
		if err := json.Unmarshal([]byte(body), &req); err != nil {
			t.Fatalf("unmarshal %s: %v", body, err)
		}
		key, err := server.KeyForRequest(req, -1)
		if err != nil {
			t.Fatalf("KeyForRequest(%s): %v", body, err)
		}
		return key
	}
	baseKey := keyOf(base)
	for _, body := range respellings {
		if got := keyOf(body); got != baseKey {
			t.Errorf("router key(%s) = %s, want %s", body, got, baseKey)
		}
	}

	// The same contract holds end to end: the worker's cache answers every
	// respelling from the entry the base spelling created.
	_, w1 := newWorkerServer(t, server.Options{})
	_, w2 := newWorkerServer(t, server.Options{})
	_, ts := newRouter(t, Options{Workers: []Worker{
		{Name: "w1", URL: w1.URL}, {Name: "w2", URL: w2.URL},
	}})
	respBase, bodyBase := postRun(t, ts.URL, base)
	worker := respBase.Header.Get("X-Pmemfleet-Worker")
	for _, body := range respellings {
		resp, b := postRun(t, ts.URL, body)
		if got := resp.Header.Get("X-Pmemfleet-Worker"); got != worker {
			t.Errorf("respelling %s routed to %q, want %q", body, got, worker)
		}
		if got := resp.Header.Get("X-Pmemd-Cache"); got != "hit" {
			t.Errorf("respelling %s tier = %q, want hit", body, got)
		}
		if string(b) != string(bodyBase) {
			t.Errorf("respelling %s returned different bytes", body)
		}
	}
}

// fakeWorker is a lightweight pmemd stand-in: answers /v1/run with a
// marker body, /metrics with fabricated load gauges, and records the
// request IDs it saw.
type fakeWorker struct {
	name string
	ts   *httptest.Server

	mu     sync.Mutex
	runs   int
	reqIDs []string
	active float64
	queued float64
	fail   bool
}

func newFakeWorker(t *testing.T, name string) *fakeWorker {
	t.Helper()
	f := &fakeWorker{name: name}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/run", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		f.runs++
		f.reqIDs = append(f.reqIDs, r.Header.Get("X-Request-ID"))
		fail := f.fail
		f.mu.Unlock()
		if fail {
			http.Error(w, "boom", http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("X-Pmemd-Cache", "miss")
		w.Header().Set("Content-Type", "application/json")
		fmt.Fprintf(w, `{"worker":%q}`, f.name)
	})
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		f.mu.Lock()
		defer f.mu.Unlock()
		fmt.Fprintf(w, "# TYPE server_jobs_active gauge\nserver_jobs_active %g\n", f.active)
		fmt.Fprintf(w, "# TYPE server_queue_depth gauge\nserver_queue_depth %g\n", f.queued)
	})
	f.ts = httptest.NewServer(mux)
	t.Cleanup(f.ts.Close)
	return f
}

func (f *fakeWorker) runCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.runs
}

func TestRoundRobinDistributes(t *testing.T) {
	a, b := newFakeWorker(t, "a"), newFakeWorker(t, "b")
	_, ts := newRouter(t, Options{
		Policy:  PolicyRoundRobin,
		Workers: []Worker{{Name: "a", URL: a.ts.URL}, {Name: "b", URL: b.ts.URL}},
	})
	for i := 0; i < 6; i++ {
		resp, body := postRun(t, ts.URL, quickBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	if a.runCount() != 3 || b.runCount() != 3 {
		t.Errorf("round-robin split = %d/%d, want 3/3", a.runCount(), b.runCount())
	}
}

func TestLeastLoadedPicksIdleWorker(t *testing.T) {
	busy, idle := newFakeWorker(t, "busy"), newFakeWorker(t, "idle")
	busy.mu.Lock()
	busy.active, busy.queued = 5, 3
	busy.mu.Unlock()
	_, ts := newRouter(t, Options{
		Policy:  PolicyLeastLoaded,
		LoadTTL: time.Nanosecond, // re-scrape every request
		Workers: []Worker{{Name: "busy", URL: busy.ts.URL}, {Name: "idle", URL: idle.ts.URL}},
	})
	for i := 0; i < 4; i++ {
		resp, _ := postRun(t, ts.URL, quickBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d failed: %d", i, resp.StatusCode)
		}
		if got := resp.Header.Get("X-Pmemfleet-Worker"); got != "idle" {
			t.Errorf("request %d routed to %q, want idle", i, got)
		}
	}
	if busy.runCount() != 0 {
		t.Errorf("busy worker served %d runs, want 0", busy.runCount())
	}
}

// TestFailoverOnDeadWorker kills one worker: every request must still
// answer 200 from the survivor (no 5xx storm), the dead worker is
// quarantined, and /readyz keeps reporting ready.
func TestFailoverOnDeadWorker(t *testing.T) {
	_, w1 := newWorkerServer(t, server.Options{})
	_, w2 := newWorkerServer(t, server.Options{})
	rt, ts := newRouter(t, Options{
		Policy:         PolicyRoundRobin,
		HealthCooldown: time.Minute, // keep the dead worker quarantined for the test
		Workers:        []Worker{{Name: "w1", URL: w1.URL}, {Name: "w2", URL: w2.URL}},
	})

	w2.Close() // the worker process dies

	for i := 0; i < 4; i++ {
		resp, body := postRun(t, ts.URL, quickBody)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("request %d after worker death: status %d, body %s", i, resp.StatusCode, body)
		}
		if got := resp.Header.Get("X-Pmemfleet-Worker"); got != "w1" {
			t.Errorf("request %d served by %q, want w1", i, got)
		}
	}
	if v := routerCounter(t, rt, "fleet_failovers"); v < 1 {
		t.Errorf("fleet_failovers = %v, want >= 1", v)
	}

	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/readyz = %d with one healthy worker, want 200", resp.StatusCode)
	}

	// The workers endpoint reports the quarantine.
	wsResp, err := http.Get(ts.URL + "/v1/workers")
	if err != nil {
		t.Fatal(err)
	}
	var status []WorkerStatus
	if err := json.NewDecoder(wsResp.Body).Decode(&status); err != nil {
		t.Fatal(err)
	}
	wsResp.Body.Close()
	healthyByName := map[string]bool{}
	for _, s := range status {
		healthyByName[s.Name] = s.Healthy
	}
	if !healthyByName["w1"] || healthyByName["w2"] {
		t.Errorf("worker health = %v, want w1 healthy, w2 quarantined", healthyByName)
	}
}

// TestWorkerRestartServesFromDiskTier is the acceptance criterion: a
// worker restart followed by the same request through the fleet is served
// from the worker's SSTable tier — reported as a disk hit, byte-identical,
// no recompute.
func TestWorkerRestartServesFromDiskTier(t *testing.T) {
	dir := t.TempDir()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()

	s1, err := server.New(server.Options{MaxSF: -1, DiskCacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w1 := httptest.NewUnstartedServer(s1.Handler())
	w1.Listener.Close()
	w1.Listener = l
	w1.Start()

	_, ts := newRouter(t, Options{
		HealthCooldown: 10 * time.Millisecond,
		Workers:        []Worker{{Name: "w1", URL: "http://" + addr}},
	})

	resp1, body1 := postRun(t, ts.URL, quickBody)
	if resp1.StatusCode != http.StatusOK || resp1.Header.Get("X-Pmemd-Cache") != "miss" {
		t.Fatalf("cold run: status %d, tier %q", resp1.StatusCode, resp1.Header.Get("X-Pmemd-Cache"))
	}

	// Restart: stop the worker (flushing its memtable), bring a fresh
	// process up on the same address and cache directory.
	w1.Close()
	s1.Close()
	l2, err := net.Listen("tcp", addr)
	if err != nil {
		t.Fatalf("rebind %s: %v", addr, err)
	}
	s2, err := server.New(server.Options{MaxSF: -1, DiskCacheDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	w2 := httptest.NewUnstartedServer(s2.Handler())
	w2.Listener.Close()
	w2.Listener = l2
	w2.Start()
	t.Cleanup(func() {
		w2.Close()
		s2.Close()
	})

	// The router may need a failed attempt to notice the bounce; retry
	// briefly until the restarted worker answers.
	var resp2 *http.Response
	var body2 []byte
	deadline := time.Now().Add(5 * time.Second)
	for {
		resp2, body2 = postRun(t, ts.URL, quickBody)
		if resp2.StatusCode == http.StatusOK || time.Now().After(deadline) {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("post-restart run: status %d, body %s", resp2.StatusCode, body2)
	}
	if got := resp2.Header.Get("X-Pmemd-Cache"); got != "disk" {
		t.Errorf("post-restart tier = %q, want disk", got)
	}
	if string(body1) != string(body2) {
		t.Error("post-restart body differs from the original run")
	}
}

// TestRequestIDPropagatesToWorkers pins the end-to-end tracing satellite:
// a caller-supplied X-Request-ID reaches the worker verbatim, and a
// generated one is injected when the caller sent none.
func TestRequestIDPropagatesToWorkers(t *testing.T) {
	f := newFakeWorker(t, "a")
	_, ts := newRouter(t, Options{Workers: []Worker{{Name: "a", URL: f.ts.URL}}})

	req, _ := http.NewRequest(http.MethodPost, ts.URL+"/v1/run", strings.NewReader(quickBody))
	req.Header.Set("X-Request-ID", "trace-me-42")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if got := resp.Header.Get("X-Request-ID"); got != "trace-me-42" {
		t.Errorf("router echoed request id %q, want trace-me-42", got)
	}

	resp2, _ := postRun(t, ts.URL, quickBody) // no caller id: router mints one
	minted := resp2.Header.Get("X-Request-ID")
	if !strings.HasPrefix(minted, "fleet-") {
		t.Errorf("generated request id = %q, want fleet-* prefix", minted)
	}

	f.mu.Lock()
	seen := append([]string(nil), f.reqIDs...)
	f.mu.Unlock()
	if len(seen) != 2 || seen[0] != "trace-me-42" || seen[1] != minted {
		t.Errorf("worker saw request ids %v, want [trace-me-42 %s]", seen, minted)
	}
}

// TestBatchShardsAndGathers drives a sweep-point batch: results come back
// in submission order, duplicates hit the cache, and distinct points may
// land on distinct workers.
func TestBatchShardsAndGathers(t *testing.T) {
	_, w1 := newWorkerServer(t, server.Options{})
	_, w2 := newWorkerServer(t, server.Options{})
	rt, ts := newRouter(t, Options{Workers: []Worker{
		{Name: "w1", URL: w1.URL}, {Name: "w2", URL: w2.URL},
	}})

	batch := `{"requests":[
		{"id":"fig04","quick":true,"sf":0.02},
		{"id":"fig04","quick":true,"sf":0.02,"machine":{"PrefetcherEnabled":false}},
		{"id":"fig04","quick":true,"sf":0.02}
	]}`
	resp, err := http.Post(ts.URL+"/v1/batch", "application/json", strings.NewReader(batch))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status %d", resp.StatusCode)
	}
	var out struct {
		Results []BatchResult `json:"results"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(out.Results))
	}
	for i, r := range out.Results {
		if r.Index != i || r.Status != http.StatusOK {
			t.Errorf("result %d: index %d status %d, want %d/200", i, r.Index, r.Status, i)
		}
		if r.Worker == "" || len(r.Body) == 0 {
			t.Errorf("result %d missing worker/body", i)
		}
	}
	if string(out.Results[0].Body) != string(out.Results[2].Body) {
		t.Error("identical batch points returned different bytes")
	}
	if out.Results[0].Worker != out.Results[2].Worker {
		t.Errorf("identical points landed on %q and %q, want the same worker",
			out.Results[0].Worker, out.Results[2].Worker)
	}
	if string(out.Results[0].Body) == string(out.Results[1].Body) {
		t.Error("distinct batch points returned identical bytes")
	}
	if v := routerCounter(t, rt, "fleet_batch_runs"); v != 3 {
		t.Errorf("fleet_batch_runs = %v, want 3", v)
	}
}

// TestRouterRejectsBadRequests: malformed and invalid requests fail at the
// router edge with 400 — before consuming any worker capacity.
func TestRouterRejectsBadRequests(t *testing.T) {
	f := newFakeWorker(t, "a")
	_, ts := newRouter(t, Options{Workers: []Worker{{Name: "a", URL: f.ts.URL}}})
	for _, body := range []string{
		`{`,                      // malformed
		`{"id":"nope"}`,          // unknown experiment
		`{"id":"fig04","zz":1}`,  // unknown field
		`{"id":"fig04","sf":-1}`, // invalid sf
	} {
		resp, _ := postRun(t, ts.URL, body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("body %s: status %d, want 400", body, resp.StatusCode)
		}
	}
	if f.runCount() != 0 {
		t.Errorf("invalid requests reached the worker %d times", f.runCount())
	}
}

func TestRendezvousOrderIsListOrderIndependent(t *testing.T) {
	mk := func(names ...string) []*workerState {
		ws := make([]*workerState, len(names))
		for i, n := range names {
			ws[i] = &workerState{spec: Worker{Name: n}}
		}
		return ws
	}
	for _, key := range []string{"", "k1", "deadbeef", strings.Repeat("f", 64)} {
		a := mk("w1", "w2", "w3")
		b := mk("w3", "w1", "w2")
		orderByRendezvous(a, key)
		orderByRendezvous(b, key)
		for i := range a {
			if a[i].spec.Name != b[i].spec.Name {
				t.Fatalf("key %q: order differs by input order: %s vs %s",
					key, a[i].spec.Name, b[i].spec.Name)
			}
		}
	}
	// Different keys should not all map to one worker (sanity, not a
	// strict uniformity claim).
	owners := map[string]bool{}
	for i := 0; i < 64; i++ {
		ws := mk("w1", "w2", "w3")
		orderByRendezvous(ws, fmt.Sprintf("key-%02d", i))
		owners[ws[0].spec.Name] = true
	}
	if len(owners) < 2 {
		t.Errorf("64 keys all routed to a single worker: %v", owners)
	}
}

// TestNilLoggerDisabled: with no Logger the router's log is disabled at
// every level, so per-request lines are dropped before formatting.
func TestNilLoggerDisabled(t *testing.T) {
	rt, _ := newRouter(t, Options{Workers: []Worker{{Name: "w0", URL: "http://127.0.0.1:1"}}})
	for _, lvl := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError} {
		if rt.log.Enabled(context.Background(), lvl) {
			t.Errorf("nil Logger: level %v enabled", lvl)
		}
	}
}
