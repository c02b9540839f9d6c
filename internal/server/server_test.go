package server

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/metrics"
)

const quickBody = `{"id":"fig04","quick":true,"sf":0.02}`

func newTestServer(t *testing.T, opts Options) (*Server, *httptest.Server) {
	t.Helper()
	if opts.MaxSF == 0 {
		opts.MaxSF = -1 // tests pick tiny SFs; don't bound them
	}
	s, err := New(opts)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
	})
	return s, ts
}

func postRun(t *testing.T, ts *httptest.Server, body string) (*http.Response, []byte) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(body))
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

func counter(t *testing.T, s *Server, name string) float64 {
	t.Helper()
	v, _ := s.Registry().Snapshot().Get(name)
	return v
}

// TestServeEndToEnd is the acceptance path: a quick experiment over HTTP,
// then the identical request again — a cache hit with a byte-identical body.
func TestServeEndToEnd(t *testing.T) {
	s, ts := newTestServer(t, Options{})

	resp1, body1 := postRun(t, ts, quickBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d, body %s", resp1.StatusCode, body1)
	}
	if got := resp1.Header.Get("X-Pmemd-Cache"); got != "miss" {
		t.Errorf("cold run cache header = %q, want miss", got)
	}
	var res RunResult
	if err := json.Unmarshal(body1, &res); err != nil {
		t.Fatalf("result not JSON: %v", err)
	}
	if res.ID != "fig04" || len(res.Tables) == 0 || res.Text == "" {
		t.Fatalf("result incomplete: %+v", res)
	}

	resp2, body2 := postRun(t, ts, quickBody)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("cached run: status %d", resp2.StatusCode)
	}
	if got := resp2.Header.Get("X-Pmemd-Cache"); got != "hit" {
		t.Errorf("second run cache header = %q, want hit", got)
	}
	if string(body1) != string(body2) {
		t.Error("cached body differs from cold body")
	}
	if hits := counter(t, s, "server_cache_hits"); hits != 1 {
		t.Errorf("server_cache_hits = %v, want 1", hits)
	}

	// A semantically identical spelling must hit too.
	resp3, body3 := postRun(t, ts, `{"sf":0.02,"quick":true,"id":"fig04","machine":{}}`)
	if got := resp3.Header.Get("X-Pmemd-Cache"); got != "hit" {
		t.Errorf("respelled request cache header = %q, want hit", got)
	}
	if string(body1) != string(body3) {
		t.Error("respelled request body differs")
	}
}

// TestServingDeterminismAcrossWidths runs the same request on servers with
// different pool widths: the response bytes must match exactly.
func TestServingDeterminismAcrossWidths(t *testing.T) {
	_, ts1 := newTestServer(t, Options{Workers: 1})
	_, ts4 := newTestServer(t, Options{Workers: 4})
	_, b1 := postRun(t, ts1, quickBody)
	_, b4 := postRun(t, ts4, quickBody)
	if string(b1) != string(b4) {
		t.Error("response bytes differ between 1-wide and 4-wide servers")
	}
}

// TestMetricsInResult checks the metrics:true variant carries the
// simulation snapshot and is cached under its own key.
func TestMetricsInResult(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	_, body := postRun(t, ts, `{"id":"fig04","quick":true,"sf":0.02,"metrics":true}`)
	var res RunResult
	if err := json.Unmarshal(body, &res); err != nil {
		t.Fatal(err)
	}
	if res.Metrics == nil || len(res.Metrics.Counters) == 0 {
		t.Fatal("metrics:true result has no metrics snapshot")
	}
	if _, ok := res.Metrics.Get("machine.run.count"); !ok {
		// Any simulation counter will do; machine.run.count is recorded by
		// every machine the experiment builds.
		t.Errorf("snapshot has no machine.run.count counter: %+v", res.Metrics.Counters)
	}
	if hits := counter(t, s, "server_cache_hits"); hits != 0 {
		t.Errorf("metrics variant unexpectedly hit the plain request's cache entry")
	}
}

func TestUnknownExperiment(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postRun(t, ts, `{"id":"nope"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("status %d, want 400", resp.StatusCode)
	}
	if !strings.Contains(string(body), "fig03") {
		t.Errorf("error does not enumerate valid ids: %s", body)
	}
}

func TestExperimentsCatalog(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, err := http.Get(ts.URL + "/v1/experiments")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var cat []struct{ ID, Title string }
	if err := json.NewDecoder(resp.Body).Decode(&cat); err != nil {
		t.Fatal(err)
	}
	if len(cat) < 20 {
		t.Fatalf("catalog has %d entries, want the full registry", len(cat))
	}
}

// blockingRun installs a fake runFn that parks every simulation until
// release is closed, and returns the invocation counter.
func blockingRun(s *Server, release <-chan struct{}) *atomic.Int64 {
	var runs atomic.Int64
	s.runFn = func(ctx context.Context, c canonical, attempt int) (RunResult, metrics.Snapshot, []byte, error) {
		runs.Add(1)
		select {
		case <-release:
		case <-ctx.Done():
			return RunResult{}, metrics.Snapshot{}, nil, ctx.Err()
		}
		return RunResult{ID: c.ID, Title: "fake", Text: "fake"}, metrics.Snapshot{}, nil, nil
	}
	return &runs
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCoalescing pins the single-flight contract: N concurrent identical
// submissions run the simulation exactly once and all receive the same body.
func TestCoalescing(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 2, QueueDepth: 8})
	release := make(chan struct{})
	runs := blockingRun(s, release)

	const n = 4
	var wg sync.WaitGroup
	bodies := make([]string, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := http.Post(ts.URL+"/v1/run", "application/json", strings.NewReader(quickBody))
			if err != nil {
				errs[i] = err
				return
			}
			b, err := io.ReadAll(resp.Body)
			resp.Body.Close()
			bodies[i], errs[i] = string(b), err
		}(i)
	}
	// All n handlers must have joined the one in-flight job before the
	// simulation is released, so none of them can be served from the cache.
	// server_requests counts a handler before it reaches the in-flight
	// table, so under load it can read n while a follower is still on its
	// way there.
	waitFor(t, "all requests to join the in-flight job", func() bool {
		return counter(t, s, "server_requests") == n && counter(t, s, "server_coalesced") == n-1
	})
	close(release)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("request %d: %v", i, err)
		}
	}
	if got := runs.Load(); got != 1 {
		t.Fatalf("%d identical concurrent requests ran %d simulations, want 1", n, got)
	}
	for i := 1; i < n; i++ {
		if bodies[i] != bodies[0] {
			t.Errorf("coalesced body %d differs", i)
		}
	}
	if co := counter(t, s, "server_coalesced"); co != n-1 {
		t.Errorf("server_coalesced = %v, want %d", co, n-1)
	}
}

// TestAdmissionControl fills the pool and the queue, then checks the next
// distinct submission is refused with 429 + Retry-After.
func TestAdmissionControl(t *testing.T) {
	s, ts := newTestServer(t, Options{Workers: 1, QueueDepth: 1})
	release := make(chan struct{})
	defer close(release)
	blockingRun(s, release)

	// Two distinct jobs: one executing, one queued. Async so the POSTs
	// return immediately with 202.
	for i, id := range []string{"fig04", "fig05"} {
		resp, body := postRun(t, ts, fmt.Sprintf(`{"id":%q,"async":true}`, id))
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("async submission %d: status %d, body %s", i, resp.StatusCode, body)
		}
	}
	waitFor(t, "both jobs admitted", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.active == 2
	})

	resp, _ := postRun(t, ts, `{"id":"fig06","async":true}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity submission: status %d, want 429", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}
	if rej := counter(t, s, "server_rejected"); rej != 1 {
		t.Errorf("server_rejected = %v, want 1", rej)
	}

	// A duplicate of an in-flight job still coalesces instead of 429ing.
	resp, _ = postRun(t, ts, `{"id":"fig04","async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Errorf("duplicate of queued job: status %d, want 202 (coalesce)", resp.StatusCode)
	}
}

// TestAsyncJobLifecycle submits async, polls the job to completion, and
// checks the stored result matches a subsequent cache hit.
func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, body := postRun(t, ts, `{"id":"fig04","quick":true,"sf":0.02,"async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("async submit: status %d", resp.StatusCode)
	}
	var acc struct {
		JobID string `json:"job_id"`
		Href  string `json:"href"`
	}
	if err := json.Unmarshal(body, &acc); err != nil {
		t.Fatal(err)
	}
	if acc.JobID == "" || resp.Header.Get("Location") != acc.Href {
		t.Fatalf("bad accept payload: %s", body)
	}

	var st JobStatus
	waitFor(t, "job completion", func() bool {
		r, err := http.Get(ts.URL + acc.Href)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		if r.StatusCode != http.StatusOK {
			t.Fatalf("job poll: status %d", r.StatusCode)
		}
		if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
			t.Fatal(err)
		}
		return st.State == "done" || st.State == "failed"
	})
	if st.State != "done" || len(st.Result) == 0 {
		t.Fatalf("job finished as %s, error %q", st.State, st.Error)
	}

	resp2, body2 := postRun(t, ts, `{"id":"fig04","quick":true,"sf":0.02}`)
	if got := resp2.Header.Get("X-Pmemd-Cache"); got != "hit" {
		t.Errorf("sync request after async run: cache header %q, want hit", got)
	}
	// The job-status payload is served indented, so compare the embedded
	// result to the cached body after compaction.
	var compact bytes.Buffer
	if err := json.Compact(&compact, st.Result); err != nil {
		t.Fatal(err)
	}
	if compact.String() != string(body2) {
		t.Error("job-status result differs from cached response body")
	}

	r, err := http.Get(ts.URL + "/v1/jobs/job-999999")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job: status %d, want 404", r.StatusCode)
	}
}

// TestDrain locks down graceful shutdown: draining flips readiness, refuses
// new work, waits for the in-flight job, and preserves its result.
func TestDrain(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	release := make(chan struct{})
	blockingRun(s, release)

	resp, body := postRun(t, ts, `{"id":"fig04","async":true}`)
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit: %d %s", resp.StatusCode, body)
	}
	waitFor(t, "job running", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.running == 1
	})

	drained := make(chan error, 1)
	go func() { drained <- s.Drain(context.Background()) }()
	waitFor(t, "readyz to flip", func() bool {
		r, err := http.Get(ts.URL + "/readyz")
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		return r.StatusCode == http.StatusServiceUnavailable
	})

	if resp, _ := postRun(t, ts, `{"id":"fig05"}`); resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("submission while draining: status %d, want 503", resp.StatusCode)
	}

	select {
	case err := <-drained:
		t.Fatalf("Drain returned %v before the in-flight job finished", err)
	case <-time.After(50 * time.Millisecond):
	}
	close(release)
	if err := <-drained; err != nil {
		t.Fatalf("Drain: %v", err)
	}

	s.mu.Lock()
	j := s.jobs["job-000001"]
	s.mu.Unlock()
	if j == nil || j.state != "done" {
		t.Fatalf("in-flight job not completed by drain: %+v", j)
	}
}

// TestDrainDeadline checks an expiring drain context cancels the job.
func TestDrainDeadline(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	release := make(chan struct{})
	defer close(release)
	blockingRun(s, release)

	if resp, _ := postRun(t, ts, `{"id":"fig04","async":true}`); resp.StatusCode != http.StatusAccepted {
		t.Fatal("submit failed")
	}
	waitFor(t, "job running", func() bool {
		s.mu.Lock()
		defer s.mu.Unlock()
		return s.running == 1
	})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err != context.DeadlineExceeded {
		t.Fatalf("Drain = %v, want DeadlineExceeded", err)
	}
	s.mu.Lock()
	j := s.jobs["job-000001"]
	s.mu.Unlock()
	if j.state != "failed" || !strings.Contains(j.errMsg, "context canceled") {
		t.Fatalf("deadline-canceled job: state %s, err %q", j.state, j.errMsg)
	}
}

// TestMetricsEndpoint scrapes /metrics after a real run and checks both the
// server series and the namespaced simulation aggregate are present.
func TestMetricsEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postRun(t, ts, quickBody)
	postRun(t, ts, quickBody)

	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, _ := io.ReadAll(resp.Body)
	out := string(b)
	for _, want := range []string{
		"# TYPE server_requests counter",
		"server_cache_hits 1",
		"server_jobs_done 1",
		"# TYPE server_queue_depth gauge",
		"sim_machine_run_count",
		"# TYPE pmemd_build_info gauge",
		`pmemd_build_info{version=`,
		"# TYPE server_request_duration_seconds histogram",
		`server_request_duration_seconds_bucket{le="+Inf"} 2`,
		"server_job_queue_wait_seconds_count 1",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

func TestHealthz(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s: status %d", path, resp.StatusCode)
		}
	}
}

// TestTracedRunColdVsCached is the serving half of the trace determinism
// guarantee: the trace fetched after a cold traced run and the one fetched
// after the identical request hit the cache must be byte-identical.
func TestTracedRunColdVsCached(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	traced := `{"id":"fig04","quick":true,"sf":0.02,"trace":true}`

	fetchTrace := func(resp *http.Response) []byte {
		t.Helper()
		jobID := resp.Header.Get("X-Pmemd-Job")
		if jobID == "" {
			t.Fatal("traced run response missing X-Pmemd-Job header")
		}
		r, err := http.Get(ts.URL + "/v1/jobs/" + jobID + "/trace")
		if err != nil {
			t.Fatal(err)
		}
		defer r.Body.Close()
		b, _ := io.ReadAll(r.Body)
		if r.StatusCode != http.StatusOK {
			t.Fatalf("GET trace for %s: status %d, body %s", jobID, r.StatusCode, b)
		}
		return b
	}

	resp1, _ := postRun(t, ts, traced)
	if got := resp1.Header.Get("X-Pmemd-Cache"); got != "miss" {
		t.Fatalf("cold traced run cache header = %q, want miss", got)
	}
	cold := fetchTrace(resp1)

	resp2, _ := postRun(t, ts, traced)
	if got := resp2.Header.Get("X-Pmemd-Cache"); got != "hit" {
		t.Fatalf("second traced run cache header = %q, want hit", got)
	}
	cached := fetchTrace(resp2)

	if !bytes.Equal(cold, cached) {
		t.Errorf("trace differs cold vs cached (%d vs %d bytes)", len(cold), len(cached))
	}
	var doc struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(cold, &doc); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	if len(doc.TraceEvents) == 0 {
		t.Error("traced run produced an empty timeline")
	}
}

// TestTracedDistinctFromUntraced: trace is part of the cache identity, so a
// traced request must not be served an untraced entry (which has no trace).
func TestTracedDistinctFromUntraced(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	postRun(t, ts, quickBody)
	resp, _ := postRun(t, ts, `{"id":"fig04","quick":true,"sf":0.02,"trace":true}`)
	if got := resp.Header.Get("X-Pmemd-Cache"); got != "miss" {
		t.Errorf("traced request after untraced: cache header %q, want miss", got)
	}
}

// TestJobTraceErrors pins the trace endpoint's failure modes.
func TestJobTraceErrors(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	r, err := http.Get(ts.URL + "/v1/jobs/job-999999/trace")
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound {
		t.Errorf("unknown job trace: status %d, want 404", r.StatusCode)
	}

	// A finished but untraced job has no trace document.
	resp, _ := postRun(t, ts, quickBody)
	jobID := resp.Header.Get("X-Pmemd-Job")
	if jobID == "" {
		t.Fatal("untraced run response missing X-Pmemd-Job header")
	}
	r, err = http.Get(ts.URL + "/v1/jobs/" + jobID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	b, _ := io.ReadAll(r.Body)
	r.Body.Close()
	if r.StatusCode != http.StatusNotFound || !strings.Contains(string(b), "not traced") {
		t.Errorf("untraced job trace: status %d body %s, want 404 'not traced'", r.StatusCode, b)
	}
}

// TestJobStatusTraceHref: a traced done job advertises its trace.
func TestJobStatusTraceHref(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	resp, _ := postRun(t, ts, `{"id":"fig04","quick":true,"sf":0.02,"trace":true}`)
	jobID := resp.Header.Get("X-Pmemd-Job")
	r, err := http.Get(ts.URL + "/v1/jobs/" + jobID)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	var st JobStatus
	if err := json.NewDecoder(r.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	if st.TraceHref != "/v1/jobs/"+jobID+"/trace" {
		t.Errorf("trace_href = %q", st.TraceHref)
	}
}

func TestVersionEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Options{})
	r, err := http.Get(ts.URL + "/version")
	if err != nil {
		t.Fatal(err)
	}
	defer r.Body.Close()
	if r.StatusCode != http.StatusOK {
		t.Fatalf("GET /version: status %d", r.StatusCode)
	}
	var v BuildInfo
	if err := json.NewDecoder(r.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	if v.GoVersion == "" || v.Version == "" {
		t.Errorf("incomplete build info: %+v", v)
	}
}

// TestRequestIDPropagation: a client-supplied X-Request-ID is echoed; absent
// one, the server assigns an id of its own.
func TestRequestIDPropagation(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	req, _ := http.NewRequest("GET", ts.URL+"/healthz", nil)
	req.Header.Set("X-Request-ID", "trace-me-7")
	r, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	r.Body.Close()
	if got := r.Header.Get("X-Request-ID"); got != "trace-me-7" {
		t.Errorf("echoed request id = %q, want trace-me-7", got)
	}

	r2, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	r2.Body.Close()
	if got := r2.Header.Get("X-Request-ID"); got == "" {
		t.Error("server did not assign a request id")
	}
}

// TestNilLoggerDisabled: with no Logger the server's log is disabled at
// every level, so per-request lines are dropped before formatting.
func TestNilLoggerDisabled(t *testing.T) {
	s, _ := newTestServer(t, Options{})
	for _, lvl := range []slog.Level{slog.LevelDebug, slog.LevelInfo, slog.LevelWarn, slog.LevelError, slog.LevelError + 4} {
		if s.log.Enabled(context.Background(), lvl) {
			t.Errorf("nil Logger: level %v enabled", lvl)
		}
	}
}

// TestCachedContentHashFixedAtInsert: a memory hit is served with the hash
// taken when the body entered the cache, so bytes that change while
// resident no longer match their ContentSHAHeader and a verifying client
// (the fleet router) rejects them.
func TestCachedContentHashFixedAtInsert(t *testing.T) {
	s, ts := newTestServer(t, Options{})
	resp1, body1 := postRun(t, ts, quickBody)
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold run: status %d", resp1.StatusCode)
	}
	sum := sha256.Sum256(body1)
	if got := resp1.Header.Get(ContentSHAHeader); got != hex.EncodeToString(sum[:]) {
		t.Fatalf("cold %s = %s, body hashes to %x", ContentSHAHeader, got, sum)
	}
	resp2, body2 := postRun(t, ts, quickBody)
	if resp2.Header.Get("X-Pmemd-Cache") != "hit" || resp2.Header.Get(ContentSHAHeader) != resp1.Header.Get(ContentSHAHeader) || !bytes.Equal(body1, body2) {
		t.Fatal("warm hit differs from the cold run")
	}

	s.mu.Lock()
	key := s.jobs[resp1.Header.Get("X-Pmemd-Job")].key
	s.cache.items[key].Value.(*cacheEntry).body[0] ^= 0x01
	s.mu.Unlock()
	resp3, body3 := postRun(t, ts, quickBody)
	if resp3.Header.Get("X-Pmemd-Cache") != "hit" {
		t.Fatalf("third request: cache %q, want hit", resp3.Header.Get("X-Pmemd-Cache"))
	}
	sum3 := sha256.Sum256(body3)
	if got := resp3.Header.Get(ContentSHAHeader); got == hex.EncodeToString(sum3[:]) || got != resp1.Header.Get(ContentSHAHeader) {
		t.Errorf("changed resident body served with %s %s, want the insert-time hash", ContentSHAHeader, got)
	}
}
