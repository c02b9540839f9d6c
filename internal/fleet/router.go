package fleet

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"math"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/chaos"
	"repro/internal/metrics"
	"repro/internal/server"
)

// maxRequestBytes bounds a routed request body — the same bound pmemd
// applies, enforced early so oversized bodies never reach a worker.
const maxRequestBytes = 1 << 20

// maxBatchRequests bounds one POST /v1/batch submission.
const maxBatchRequests = 1024

// batchFanout is the router-side concurrency cap for one batch: how many
// sweep points are in flight upstream at once.
const batchFanout = 16

// maxRememberedJobs bounds the router's job-id -> worker map. Job ids the
// router has forgotten (or never saw — e.g. a job minted directly on a
// worker) still resolve via the healthy-worker scan in handleJob.
const maxRememberedJobs = 4096

// probeTimeout bounds one active half-open health probe (GET /healthz).
const probeTimeout = 2 * time.Second

// latencyWindow is how many successful attempt durations feed the adaptive
// hedge delay, and latencyMinSamples how many must exist before hedging.
const (
	latencyWindow     = 64
	latencyMinSamples = 16
	hedgeFloor        = 100 * time.Millisecond
)

// retryBurst caps the global retry token bucket.
const retryBurst = 32

// workerState is one backend's mutable routing state.
type workerState struct {
	spec Worker
	br   *breaker

	mu     sync.Mutex
	load   float64   // jobs in flight + queued, from the last scrape
	loadAt time.Time // when load was scraped

	cRequests *metrics.Counter
	cErrors   *metrics.Counter
}

func (w *workerState) healthy(now time.Time) bool {
	return w.br.closedNow()
}

// Router is the fleet front-end, independent of any listener: wire
// Handler into net/http (or httptest) and drive requests through it.
type Router struct {
	opts    Options
	reg     *metrics.Registry
	workers []*workerState
	log     *slog.Logger

	rrNext  atomic.Uint64
	nextReq atomic.Uint64

	// jobMu guards the job-id -> owning-worker memory that lets job-addressed
	// GETs (status, trace, diagnosis) route straight to the worker that minted
	// the handle instead of scanning the fleet.
	jobMu    sync.Mutex
	jobOwner map[string]*workerState
	jobOrder []string // remembered job ids, oldest first

	// retryMu guards the global retry token bucket: refilled a fraction per
	// incoming run, spent one per extra attempt (failover or hedge).
	retryMu     sync.Mutex
	retryTokens float64

	// latMu guards the successful-attempt latency ring behind the adaptive
	// hedge delay.
	latMu      sync.Mutex
	latSamples []float64
	latNext    int

	cRequests      *metrics.Counter
	cBadReq        *metrics.Counter
	cFailovers     *metrics.Counter
	cExhausted     *metrics.Counter
	cBatches       *metrics.Counter
	cBatchRuns     *metrics.Counter
	cTierMemory    *metrics.Counter
	cTierDisk      *metrics.Counter
	cTierCoal      *metrics.Counter
	cTierMiss      *metrics.Counter
	cHedged        *metrics.Counter
	cHedgeWins     *metrics.Counter
	cIntegrityFail *metrics.Counter
	cBreakerOpens  *metrics.Counter
	cBreakerProbes *metrics.Counter
	cRetryStarved  *metrics.Counter
	cDeadlineOut   *metrics.Counter
	gWorkers       *metrics.Gauge
	gHealthy       *metrics.Gauge
	hReqDur        *metrics.Histogram
}

// New builds a Router over the configured workers.
func New(opts Options) (*Router, error) {
	opts, err := opts.withDefaults()
	if err != nil {
		return nil, err
	}
	reg := metrics.New()
	rt := &Router{
		opts:           opts,
		reg:            reg,
		log:            opts.Logger,
		jobOwner:       make(map[string]*workerState),
		retryTokens:    retryBurst, // start full: a cold fleet may fail over freely
		latSamples:     make([]float64, 0, latencyWindow),
		cRequests:      reg.Counter("fleet_requests"),
		cBadReq:        reg.Counter("fleet_bad_requests"),
		cFailovers:     reg.Counter("fleet_failovers"),
		cExhausted:     reg.Counter("fleet_no_healthy_worker"),
		cBatches:       reg.Counter("fleet_batches"),
		cBatchRuns:     reg.Counter("fleet_batch_runs"),
		cTierMemory:    reg.Counter("fleet_tier_memory_hits"),
		cTierDisk:      reg.Counter("fleet_tier_disk_hits"),
		cTierCoal:      reg.Counter("fleet_tier_coalesced"),
		cTierMiss:      reg.Counter("fleet_tier_misses"),
		cHedged:        reg.Counter("fleet_hedged_requests"),
		cHedgeWins:     reg.Counter("fleet_hedge_wins"),
		cIntegrityFail: reg.Counter("fleet_integrity_failures"),
		cBreakerOpens:  reg.Counter("fleet_breaker_opens"),
		cBreakerProbes: reg.Counter("fleet_breaker_probes"),
		cRetryStarved:  reg.Counter("fleet_retry_budget_exhausted"),
		cDeadlineOut:   reg.Counter("fleet_deadline_timeouts"),
		gWorkers:       reg.Gauge("fleet_workers"),
		gHealthy:       reg.Gauge("fleet_workers_healthy"),
		hReqDur:        reg.Histogram("fleet_request_duration_seconds", metrics.DefaultDurationBuckets()),
	}
	if rt.log == nil {
		rt.log = server.DiscardLogger()
	}
	for _, w := range opts.Workers {
		rt.workers = append(rt.workers, &workerState{
			spec:      w,
			br:        newBreaker(opts.BreakerWindow, opts.BreakerThreshold, opts.HealthCooldown),
			cRequests: reg.Counter("fleet.worker." + w.Name + ".requests"),
			cErrors:   reg.Counter("fleet.worker." + w.Name + ".errors"),
		})
	}
	rt.gWorkers.Set(float64(len(rt.workers)))
	rt.gHealthy.Set(float64(len(rt.workers)))
	return rt, nil
}

// Registry exposes the router's metrics registry (the /metrics content).
func (rt *Router) Registry() *metrics.Registry { return rt.reg }

// Handler returns the fleet HTTP API. Job-addressed GETs (status, trace,
// diagnosis) are proxied: the router remembers which worker minted each job
// handle it forwarded and routes follow-up reads there, falling back to a
// healthy-worker scan for handles it has forgotten.
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /readyz", rt.handleReadyz)
	mux.HandleFunc("GET /metrics", rt.handleMetrics)
	mux.HandleFunc("GET /metrics.json", rt.handleMetricsJSON)
	mux.HandleFunc("GET /v1/workers", rt.handleWorkers)
	mux.HandleFunc("GET /v1/experiments", rt.handleExperiments)
	mux.HandleFunc("POST /v1/run", rt.handleRun)
	mux.HandleFunc("POST /v1/batch", rt.handleBatch)
	mux.HandleFunc("GET /v1/jobs/{id}", rt.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", rt.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/diagnosis", rt.handleJob)
	return rt.instrument(mux)
}

// instrument assigns/propagates X-Request-ID and logs one line per request
// — the front-end half of the end-to-end trace: the same ID is forwarded
// to the worker, which logs it again in its own request log.
func (rt *Router) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		rt.maybeProbe()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = fmt.Sprintf("fleet-%06d", rt.nextReq.Add(1))
			r.Header.Set("X-Request-ID", reqID)
		}
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		rt.hReqDur.Observe(elapsed.Seconds())
		rt.log.Info("request",
			"request_id", reqID,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.code,
			"duration_ms", float64(elapsed.Microseconds())/1e3,
		)
	})
}

type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n")
}

func (rt *Router) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if len(rt.availableWorkers("", time.Now())) == 0 {
		w.Header().Set("Retry-After", rt.retryAfterSeconds(time.Now()))
		http.Error(w, "no healthy workers", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

func (rt *Router) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rt.gHealthy.Set(float64(len(rt.healthyWorkers())))
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	rt.reg.WritePrometheus(w, "")
}

// handleMetricsJSON serves the registry snapshot in the JSON form pmemdoctor
// consumes (-metrics), so a live fleet can be diagnosed without scraping and
// re-parsing the Prometheus exposition.
func (rt *Router) handleMetricsJSON(w http.ResponseWriter, r *http.Request) {
	rt.gHealthy.Set(float64(len(rt.healthyWorkers())))
	writeJSON(w, http.StatusOK, rt.reg.Snapshot())
}

// WorkerStatus is one entry of the GET /v1/workers payload.
type WorkerStatus struct {
	Name    string  `json:"name"`
	URL     string  `json:"url"`
	Healthy bool    `json:"healthy"` // breaker closed: in normal rotation
	Breaker string  `json:"breaker"` // closed | open | half-open
	Load    float64 `json:"load"`    // jobs in flight + queued at the last scrape
}

func (rt *Router) handleWorkers(w http.ResponseWriter, r *http.Request) {
	out := make([]WorkerStatus, len(rt.workers))
	for i, ws := range rt.workers {
		state := ws.br.state()
		ws.mu.Lock()
		out[i] = WorkerStatus{
			Name:    ws.spec.Name,
			URL:     ws.spec.URL,
			Healthy: state == BreakerClosed,
			Breaker: state,
			Load:    ws.load,
		}
		ws.mu.Unlock()
	}
	writeJSON(w, http.StatusOK, out)
}

// maybeProbe launches an active half-open probe (GET /healthz, bounded) for
// every worker whose breaker has cooled down. Called on each incoming
// request, it means a fleet whose every worker tripped heals itself as soon
// as the workers do — a client polling /v1/workers is enough to drive
// recovery; nobody's real request has to be the guinea pig and no restart is
// needed.
func (rt *Router) maybeProbe() {
	now := time.Now()
	for _, ws := range rt.workers {
		if ws.br.closedNow() || !ws.br.available(now) {
			continue
		}
		ok, probe := ws.br.acquire(now)
		if !ok || !probe {
			continue
		}
		rt.cBreakerProbes.Inc()
		go func(ws *workerState) {
			ctx, cancel := context.WithTimeout(context.Background(), probeTimeout)
			defer cancel()
			ctx = chaos.WithTarget(ctx, ws.spec.Name)
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, ws.spec.URL+"/healthz", nil)
			if err != nil {
				ws.br.release(true)
				return
			}
			resp, err := rt.opts.Client.Do(req)
			failed := err != nil
			if resp != nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				failed = resp.StatusCode != http.StatusOK
			}
			ws.br.record(time.Now(), failed, true)
			if !failed {
				rt.log.Info("worker recovered", "worker", ws.spec.Name)
				rt.gHealthy.Set(float64(len(rt.healthyWorkers())))
			}
		}(ws)
	}
}

// retryAfterSeconds renders the shortest time until any breaker admits an
// attempt as a Retry-After value (whole seconds, at least 1).
func (rt *Router) retryAfterSeconds(now time.Time) string {
	min := time.Duration(math.MaxInt64)
	for _, ws := range rt.workers {
		if d := ws.br.retryAfter(now); d < min {
			min = d
		}
	}
	secs := int(math.Ceil(min.Seconds()))
	if secs < 1 {
		secs = 1
	}
	return fmt.Sprintf("%d", secs)
}

// handleExperiments proxies the catalog from the first worker that
// answers; the catalog is compiled into every worker, so any one will do.
func (rt *Router) handleExperiments(w http.ResponseWriter, r *http.Request) {
	for _, ws := range rt.candidates("") {
		resp, err := rt.opts.Client.Get(ws.spec.URL + "/v1/experiments")
		if err != nil {
			rt.noteFailure(ws, err.Error())
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil || resp.StatusCode != http.StatusOK {
			rt.noteFailure(ws, fmt.Sprintf("experiments: status %d", resp.StatusCode))
			continue
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write(body)
		return
	}
	writeError(w, http.StatusBadGateway, "no worker answered the catalog request")
}

// runOutcome is one forwarded run's result.
type runOutcome struct {
	status int
	body   []byte
	worker string
	cache  string // X-Pmemd-Cache from the worker
	job    string // X-Pmemd-Job from the worker
	sha    string // X-Pmemd-Content-SHA256 from the worker (verified)
	ws     *workerState
}

// errNoWorkers marks "every breaker is open and cooling": the request was
// refused before any attempt, and the client should retry after the shortest
// cooldown rather than hammer a fleet that cannot answer.
var errNoWorkers = errors.New("no available workers")

func (rt *Router) handleRun(w http.ResponseWriter, r *http.Request) {
	rt.cRequests.Inc()
	rt.refillRetryTokens()
	raw, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	if err != nil {
		rt.cBadReq.Inc()
		writeError(w, http.StatusBadRequest, fmt.Sprintf("read request body: %v", err))
		return
	}
	key, async, err := keyForBody(raw, rt.opts.MaxSF)
	if err != nil {
		rt.cBadReq.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	ctx := r.Context()
	deadline, hasDeadline, err := server.ParseDeadline(r)
	if err != nil {
		rt.cBadReq.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if hasDeadline {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}
	// Hedging is for synchronous runs only: an async submission returns a
	// job handle, and racing two workers for it would mint two handles.
	out, err := rt.forwardRun(ctx, r.Header.Get("X-Request-ID"), raw, key, !async)
	if err != nil {
		rt.writeRunError(w, r, err)
		return
	}
	rt.countTier(out.cache)
	if out.cache != "" {
		w.Header().Set("X-Pmemd-Cache", out.cache)
	}
	if out.job != "" {
		w.Header().Set("X-Pmemd-Job", out.job)
	}
	if out.sha != "" {
		w.Header().Set(server.ContentSHAHeader, out.sha)
	}
	w.Header().Set("X-Pmemfleet-Worker", out.worker)
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(out.status)
	w.Write(out.body)
}

// writeRunError maps a forwardRun failure to the client-facing status:
// 503 + Retry-After when no worker could even be attempted, 504 when the
// propagated deadline ran out first, 502 when attempts were made and all
// failed.
func (rt *Router) writeRunError(w http.ResponseWriter, r *http.Request, err error) {
	rt.cExhausted.Inc()
	switch {
	case errors.Is(err, errNoWorkers):
		w.Header().Set("Retry-After", rt.retryAfterSeconds(time.Now()))
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("no available workers (of %d configured); retry after cooldown", len(rt.workers)))
	case errors.Is(err, context.DeadlineExceeded) && r.Context().Err() == nil:
		rt.cDeadlineOut.Inc()
		writeError(w, http.StatusGatewayTimeout, "deadline exceeded before any worker answered")
	default:
		writeError(w, http.StatusBadGateway, err.Error())
	}
}

// keyForBody decodes one run request strictly (the worker's own rules) and
// derives its canonical cache key plus the async delivery flag.
func keyForBody(raw []byte, maxSF float64) (key string, async bool, err error) {
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	var req server.RunRequest
	if err := dec.Decode(&req); err != nil {
		return "", false, fmt.Errorf("bad request body: %v", err)
	}
	key, err = server.KeyForRequest(req, maxSF)
	return key, req.Async, err
}

// attemptResult is one upstream attempt's verdict, delivered to the
// forwardRun coordinator. Breaker accounting already happened in the attempt
// goroutine; the coordinator only sequences failover and picks the winner.
type attemptResult struct {
	out    runOutcome
	err    error // non-nil: failover-worthy (transport, 502/503/504, integrity)
	hedged bool
}

// forwardRun drives one run to an answer: the policy's first available
// worker, hedged after the latency quantile, failing over on transport
// errors / gateway statuses / integrity mismatches, spending the global
// retry budget for every attempt past the first. Anything else a worker
// says — including its 500 for a failed job or 429 for a full queue — is a
// real answer and is returned as-is.
func (rt *Router) forwardRun(ctx context.Context, reqID string, raw []byte, key string, hedgeOK bool) (runOutcome, error) {
	cands := rt.availableWorkers(key, time.Now())
	if len(cands) == 0 {
		return runOutcome{}, errNoWorkers
	}
	maxAttempts := 1 + rt.opts.RetryBudget
	if maxAttempts > len(cands) {
		maxAttempts = len(cands)
	}
	gctx, cancel := context.WithCancel(ctx)
	defer cancel() // losers see the cancel and record a neutral outcome

	results := make(chan attemptResult, len(cands)) // attempts never block on send
	next, inflight, attempts := 0, 0, 0
	launch := func(hedged bool) bool {
		if attempts >= maxAttempts {
			return false
		}
		for next < len(cands) {
			ws := cands[next]
			next++
			ok, probe := ws.br.acquire(time.Now())
			if !ok {
				continue // someone else took this worker's half-open probe
			}
			if attempts > 0 && !rt.takeRetryToken() {
				ws.br.release(probe)
				rt.cRetryStarved.Inc()
				return false
			}
			if hedged {
				rt.cHedged.Inc()
			} else if attempts > 0 {
				rt.cFailovers.Inc()
			}
			attempts++
			inflight++
			go rt.attempt(gctx, ws, reqID, raw, key, probe, hedged, results)
			return true
		}
		return false
	}
	if !launch(false) {
		return runOutcome{}, errNoWorkers
	}

	var hedgeCh <-chan time.Time
	if hedgeOK {
		if delay := rt.hedgeDelay(); delay > 0 {
			timer := time.NewTimer(delay)
			defer timer.Stop()
			hedgeCh = timer.C
		}
	}

	var lastErr error
	for inflight > 0 {
		select {
		case res := <-results:
			inflight--
			if res.err == nil {
				if res.hedged {
					rt.cHedgeWins.Inc()
				}
				return res.out, nil
			}
			lastErr = res.err
			if ctx.Err() != nil {
				return runOutcome{}, ctx.Err()
			}
			launch(false)
		case <-hedgeCh:
			hedgeCh = nil // one hedge per request
			launch(true)
		case <-ctx.Done():
			return runOutcome{}, ctx.Err()
		}
	}
	return runOutcome{}, fmt.Errorf("all %d attempted workers failed: %v", attempts, lastErr)
}

// attempt performs one upstream POST /v1/run against ws: per-attempt timeout
// (min of WorkerTimeout and the propagated deadline's remainder), deadline
// header propagation, end-to-end body-hash verification, and breaker
// accounting. The verdict lands on results; breaker/metric effects happen
// here so they are correct even after the coordinator has returned.
func (rt *Router) attempt(ctx context.Context, ws *workerState, reqID string, raw []byte, key string, probe, hedged bool, results chan<- attemptResult) {
	start := time.Now()
	ws.cRequests.Inc()

	timeout := rt.opts.WorkerTimeout
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem < timeout {
			timeout = rem
		}
	}
	actx, cancel := context.WithTimeout(chaos.WithTarget(ctx, ws.spec.Name), timeout)
	defer cancel()

	fail := func(why string) {
		// A loser canceled because another attempt already won proved nothing
		// about this worker — release the breaker without a verdict.
		if ctx.Err() == context.Canceled {
			ws.br.release(probe)
			results <- attemptResult{err: context.Canceled, hedged: hedged}
			return
		}
		ws.cErrors.Inc()
		if tripped := ws.br.record(time.Now(), true, probe); tripped {
			rt.cBreakerOpens.Inc()
			rt.log.Warn("breaker opened",
				"worker", ws.spec.Name, "cooldown", rt.opts.HealthCooldown.String(), "error", why)
		} else {
			rt.log.Warn("worker attempt failed", "worker", ws.spec.Name, "error", why)
		}
		rt.gHealthy.Set(float64(len(rt.healthyWorkers())))
		results <- attemptResult{err: fmt.Errorf("worker %s: %s", ws.spec.Name, why), hedged: hedged}
	}

	req, err := http.NewRequestWithContext(actx, http.MethodPost, ws.spec.URL+"/v1/run", bytes.NewReader(raw))
	if err != nil {
		results <- attemptResult{err: err, hedged: hedged}
		return
	}
	req.Header.Set("Content-Type", "application/json")
	if reqID != "" {
		req.Header.Set("X-Request-ID", reqID)
	}
	if dl, ok := ctx.Deadline(); ok {
		if rem := time.Until(dl); rem > 0 {
			req.Header.Set(server.DeadlineHeader, fmt.Sprintf("%d", rem.Milliseconds()))
		}
	}
	resp, err := rt.opts.Client.Do(req)
	if err != nil {
		fail(err.Error())
		return
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		fail(fmt.Sprintf("read response: %v", err))
		return
	}
	switch resp.StatusCode {
	case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		fail(fmt.Sprintf("status %d", resp.StatusCode))
		return
	}
	sha := resp.Header.Get(server.ContentSHAHeader)
	if sha != "" {
		sum := sha256.Sum256(body)
		if got := hex.EncodeToString(sum[:]); got != sha {
			rt.cIntegrityFail.Inc()
			fail(fmt.Sprintf("content hash mismatch: worker declared %s, body hashes to %s", sha, got))
			return
		}
	}
	ws.br.record(time.Now(), false, probe)
	rt.observeLatency(time.Since(start).Seconds())
	rt.log.Info("routed",
		"request_id", reqID,
		"worker", ws.spec.Name,
		"policy", rt.opts.Policy,
		"status", resp.StatusCode,
		"cache", resp.Header.Get("X-Pmemd-Cache"),
		"hedged", hedged,
		"key", key[:min(12, len(key))],
	)
	out := runOutcome{
		status: resp.StatusCode,
		body:   body,
		worker: ws.spec.Name,
		cache:  resp.Header.Get("X-Pmemd-Cache"),
		job:    resp.Header.Get("X-Pmemd-Job"),
		sha:    sha,
		ws:     ws,
	}
	rt.rememberJob(out.job, ws)
	results <- attemptResult{out: out, hedged: hedged}
}

// takeRetryToken spends one global retry token; the bucket refills a
// fraction per incoming run (see refillRetryTokens), so fleet-wide retry
// volume is bounded relative to real traffic.
func (rt *Router) takeRetryToken() bool {
	rt.retryMu.Lock()
	defer rt.retryMu.Unlock()
	if rt.retryTokens < 1 {
		return false
	}
	rt.retryTokens--
	return true
}

func (rt *Router) refillRetryTokens() {
	rt.retryMu.Lock()
	rt.retryTokens += rt.opts.RetryRatio
	if rt.retryTokens > retryBurst {
		rt.retryTokens = retryBurst
	}
	rt.retryMu.Unlock()
}

// observeLatency records one successful attempt's duration for the adaptive
// hedge delay.
func (rt *Router) observeLatency(secs float64) {
	rt.latMu.Lock()
	if len(rt.latSamples) < latencyWindow {
		rt.latSamples = append(rt.latSamples, secs)
	} else {
		rt.latSamples[rt.latNext] = secs
		rt.latNext = (rt.latNext + 1) % latencyWindow
	}
	rt.latMu.Unlock()
}

// hedgeDelay resolves when (if ever) a synchronous run should hedge:
// HedgeAfter > 0 is a fixed delay, < 0 disables, 0 adapts to the observed
// p95 attempt latency once enough samples exist (never below hedgeFloor —
// sub-100ms hedging would double traffic for no one's benefit).
func (rt *Router) hedgeDelay() time.Duration {
	if rt.opts.HedgeAfter > 0 {
		return rt.opts.HedgeAfter
	}
	if rt.opts.HedgeAfter < 0 {
		return 0
	}
	rt.latMu.Lock()
	n := len(rt.latSamples)
	samples := append([]float64(nil), rt.latSamples...)
	rt.latMu.Unlock()
	if n < latencyMinSamples {
		return 0
	}
	sort.Float64s(samples)
	p95 := samples[(n*95)/100]
	d := time.Duration(p95 * float64(time.Second))
	if d < hedgeFloor {
		d = hedgeFloor
	}
	return d
}

// rememberJob records which worker minted a job handle (bounded FIFO). A
// no-op for empty ids — not every worker response carries one.
func (rt *Router) rememberJob(id string, ws *workerState) {
	if id == "" {
		return
	}
	rt.jobMu.Lock()
	if _, seen := rt.jobOwner[id]; !seen {
		rt.jobOrder = append(rt.jobOrder, id)
		for len(rt.jobOrder) > maxRememberedJobs {
			delete(rt.jobOwner, rt.jobOrder[0])
			rt.jobOrder = rt.jobOrder[1:]
		}
	}
	rt.jobOwner[id] = ws
	rt.jobMu.Unlock()
}

// handleJob proxies the job-addressed GETs — /v1/jobs/{id} and its /trace
// and /diagnosis sub-resources — to the worker that owns the handle. The
// remembered owner is tried first; on a miss (forgotten handle, restarted
// router) every healthy worker is scanned in deterministic candidate order.
// A worker's 404 means "not mine, try the next"; any other answer — 200,
// 409 for a job still running, the trace endpoint's 404-with-body cousin
// aside — is authoritative and returned as-is with the owning worker named
// in X-Pmemfleet-Worker.
func (rt *Router) handleJob(w http.ResponseWriter, r *http.Request) {
	rt.cRequests.Inc()
	id := r.PathValue("id")

	rt.jobMu.Lock()
	owner := rt.jobOwner[id]
	rt.jobMu.Unlock()

	var cands []*workerState
	if owner != nil {
		cands = append(cands, owner)
	}
	for _, ws := range rt.candidates("") {
		if ws != owner {
			cands = append(cands, ws)
		}
	}
	reqID := r.Header.Get("X-Request-ID")
	for _, ws := range cands {
		req, err := http.NewRequest(http.MethodGet, ws.spec.URL+r.URL.Path, nil)
		if err != nil {
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if reqID != "" {
			req.Header.Set("X-Request-ID", reqID)
		}
		resp, err := rt.opts.Client.Do(req)
		if err != nil {
			rt.noteFailure(ws, err.Error())
			continue
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			rt.noteFailure(ws, fmt.Sprintf("read response: %v", err))
			continue
		}
		switch resp.StatusCode {
		case http.StatusNotFound:
			// "unknown job" from a worker that never saw it — keep scanning.
			// (A 404 for "not traced"/"no diagnosis" also lands here; the scan
			// ends at the same 404 for single-owner handles, so the client
			// still sees the right answer, just after a wider search.)
			continue
		case http.StatusBadGateway, http.StatusServiceUnavailable, http.StatusGatewayTimeout:
			rt.noteFailure(ws, fmt.Sprintf("status %d", resp.StatusCode))
			continue
		}
		rt.rememberJob(id, ws)
		if ct := resp.Header.Get("Content-Type"); ct != "" {
			w.Header().Set("Content-Type", ct)
		}
		w.Header().Set("X-Pmemfleet-Worker", ws.spec.Name)
		w.WriteHeader(resp.StatusCode)
		w.Write(body)
		return
	}
	writeError(w, http.StatusNotFound, "unknown job "+id+" (no worker claims it)")
}

// noteFailure records a non-run failure (catalog proxy, job proxy) against
// the worker's breaker.
func (rt *Router) noteFailure(ws *workerState, why string) {
	ws.cErrors.Inc()
	if tripped := ws.br.record(time.Now(), true, false); tripped {
		rt.cBreakerOpens.Inc()
		rt.log.Warn("breaker opened",
			"worker", ws.spec.Name, "cooldown", rt.opts.HealthCooldown.String(), "error", why)
	} else {
		rt.log.Warn("worker attempt failed", "worker", ws.spec.Name, "error", why)
	}
	rt.gHealthy.Set(float64(len(rt.healthyWorkers())))
}

func (rt *Router) countTier(cache string) {
	switch cache {
	case "hit":
		rt.cTierMemory.Inc()
	case "disk":
		rt.cTierDisk.Inc()
	case "coalesced":
		rt.cTierCoal.Inc()
	case "miss":
		rt.cTierMiss.Inc()
	}
}

// BatchRequest is the POST /v1/batch body: an ordered list of run requests
// — typically the points of one sweep — scattered across the fleet by the
// active policy and gathered back in order.
type BatchRequest struct {
	Requests []json.RawMessage `json:"requests"`
}

// BatchResult is one request's outcome within a batch response.
type BatchResult struct {
	Index  int             `json:"index"`
	Status int             `json:"status"`
	Worker string          `json:"worker,omitempty"`
	Cache  string          `json:"cache,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
	Error  string          `json:"error,omitempty"`
}

func (rt *Router) handleBatch(w http.ResponseWriter, r *http.Request) {
	rt.cBatches.Inc()
	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, 8*maxRequestBytes))
	dec.DisallowUnknownFields()
	var batch BatchRequest
	if err := dec.Decode(&batch); err != nil {
		rt.cBadReq.Inc()
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad batch body: %v", err))
		return
	}
	if len(batch.Requests) == 0 {
		rt.cBadReq.Inc()
		writeError(w, http.StatusBadRequest, "batch has no requests")
		return
	}
	if len(batch.Requests) > maxBatchRequests {
		rt.cBadReq.Inc()
		writeError(w, http.StatusBadRequest,
			fmt.Sprintf("batch has %d requests, bound is %d", len(batch.Requests), maxBatchRequests))
		return
	}
	// The same refusal the single-run path gives: when every breaker is open
	// and cooling, tell the client when to come back instead of scattering N
	// requests that can only fail.
	if len(rt.availableWorkers("", time.Now())) == 0 {
		rt.cExhausted.Inc()
		w.Header().Set("Retry-After", rt.retryAfterSeconds(time.Now()))
		writeError(w, http.StatusServiceUnavailable,
			fmt.Sprintf("no available workers (of %d configured); retry after cooldown", len(rt.workers)))
		return
	}
	ctx := r.Context()
	deadline, hasDeadline, err := server.ParseDeadline(r)
	if err != nil {
		rt.cBadReq.Inc()
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	if hasDeadline {
		// One budget for the whole batch: every point races the same clock,
		// exactly as the caller experiences it.
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, deadline)
		defer cancel()
	}

	reqID := r.Header.Get("X-Request-ID")
	results := make([]BatchResult, len(batch.Requests))
	sem := make(chan struct{}, batchFanout)
	var wg sync.WaitGroup
	for i, raw := range batch.Requests {
		wg.Add(1)
		go func(i int, raw []byte) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			rt.cBatchRuns.Inc()
			rt.refillRetryTokens()
			res := BatchResult{Index: i}
			key, async, err := keyForBody(raw, rt.opts.MaxSF)
			if err != nil {
				res.Status = http.StatusBadRequest
				res.Error = err.Error()
				results[i] = res
				return
			}
			// Sub-request IDs extend the batch's ID, so worker logs tie each
			// point back to the one fleet submission.
			subID := reqID
			if subID != "" {
				subID = fmt.Sprintf("%s.%d", reqID, i)
			}
			out, err := rt.forwardRun(ctx, subID, raw, key, !async)
			if err != nil {
				switch {
				case errors.Is(err, errNoWorkers):
					res.Status = http.StatusServiceUnavailable
				case errors.Is(err, context.DeadlineExceeded):
					rt.cDeadlineOut.Inc()
					res.Status = http.StatusGatewayTimeout
				default:
					res.Status = http.StatusBadGateway
				}
				res.Error = err.Error()
				results[i] = res
				return
			}
			rt.countTier(out.cache)
			res.Status = out.status
			res.Worker = out.worker
			res.Cache = out.cache
			res.Body = json.RawMessage(out.body)
			results[i] = res
		}(i, raw)
	}
	wg.Wait()
	writeJSON(w, http.StatusOK, map[string]any{"results": results})
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	json.NewEncoder(w).Encode(map[string]string{"error": msg})
}
