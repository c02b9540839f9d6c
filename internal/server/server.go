package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"net/http"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/doctor"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/metrics"
	"repro/internal/simtrace"
	"repro/internal/sstcache"
)

// maxRetainedJobs bounds the finished-job history kept for GET /v1/jobs;
// in-flight jobs are never pruned.
const maxRetainedJobs = 1024

// maxRequestBytes bounds a POST /v1/run body (an experiment id plus a
// machine-config override fits in a fraction of this).
const maxRequestBytes = 1 << 20

// Headers shared by pmemd workers, the fleet router, and load/chaos clients.
const (
	// DeadlineHeader carries the request's remaining time budget in
	// milliseconds. Relative rather than absolute so clock skew between
	// router and worker cannot corrupt it. A worker caps both its
	// result-wait and — for jobs it starts — the job context at this budget.
	DeadlineHeader = "X-Pmemd-Deadline"
	// ContentSHAHeader is the lowercase hex SHA-256 of the response body,
	// set on every served result so the router (and any client) can verify
	// end-to-end integrity and fail over on corruption.
	ContentSHAHeader = "X-Pmemd-Content-SHA256"
)

// Options configures a Server.
type Options struct {
	// Workers is the shared simulation pool's width: how many experiments
	// execute concurrently across all requests. <= 0 means GOMAXPROCS.
	Workers int
	// QueueDepth is how many admitted jobs may wait for a pool slot beyond
	// the ones executing; submissions past Workers+QueueDepth in-flight
	// jobs are refused with 429 + Retry-After. <= 0 means 64.
	QueueDepth int
	// CacheBytes is the result cache's byte budget. <= 0 means 64 MiB.
	CacheBytes int64
	// JobTimeout cancels a single simulation that runs longer than this
	// (queue wait included). <= 0 means 2 minutes.
	JobTimeout time.Duration
	// MaxSF bounds the scale factor a request may ask for (SSB data
	// generation is the one knob that costs real memory). 0 means 1.0;
	// negative means unbounded.
	MaxSF float64
	// RetryAttempts is how many times a job is retried after a transient
	// simulation error (faults.ErrTransient — injected by fault plans or
	// surfaced by the runner). <= 0 means 2 retries (3 attempts total).
	RetryAttempts int
	// RetryBackoff is the base of the jittered exponential backoff between
	// retry attempts. <= 0 means 50ms. Backoff is wall-clock only; it never
	// influences the simulated result bytes.
	RetryBackoff time.Duration
	// DiskCacheDir enables the persistent SSTable result tier under the
	// in-memory LRU: results are written through to an on-disk store in
	// this directory and survive restarts (served with X-Pmemd-Cache:
	// disk, no recompute). Empty disables the tier.
	DiskCacheDir string
	// DiskCacheMemtableBytes is the disk tier's memtable flush threshold.
	// <= 0 means sstcache.DefaultMemtableBytes.
	DiskCacheMemtableBytes int64
	// DiskReadTamper, when set, is handed to the disk tier as its read-path
	// fault hook (sstcache.Options.ReadTamper) — chaos plans use it to
	// exercise per-record CRC verification against genuinely torn bytes.
	// Production servers leave it nil.
	DiskReadTamper func(payload []byte) []byte
	// Logger receives the structured request/lifecycle log. nil discards
	// (tests); the daemon passes a real handler.
	Logger *slog.Logger
}

// DiscardLogger returns a logger whose handler is disabled at every level,
// so a discarded record is dropped before any of it is formatted. It stands
// in for slog.DiscardHandler, which needs a newer Go than go.mod's.
func DiscardLogger() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

func (o Options) withDefaults() Options {
	if o.Workers <= 0 {
		o.Workers = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 64 << 20
	}
	if o.JobTimeout <= 0 {
		o.JobTimeout = 2 * time.Minute
	}
	if o.MaxSF == 0 {
		o.MaxSF = 1
	}
	if o.RetryAttempts <= 0 {
		o.RetryAttempts = 2
	}
	if o.RetryBackoff <= 0 {
		o.RetryBackoff = 50 * time.Millisecond
	}
	return o
}

// job is one admitted simulation. State transitions and the result fields
// are guarded by Server.mu; done closes after the final transition, so a
// waiter that saw done closed may read body/errMsg under mu without racing.
type job struct {
	id      string
	key     string
	canon   canonical
	created time.Time
	done    chan struct{}

	timeout time.Duration // per-job budget: min(JobTimeout, admitting request's deadline)

	state    string // "queued" -> "running" -> "done" | "failed"
	started  time.Time
	finished time.Time
	result   // set when done; its trace is nil unless the request asked for one
	errMsg   string
}

// Server is the pmemd serving subsystem, independent of any listener: wire
// Handler into net/http (or httptest) and drive jobs through it.
type Server struct {
	opts  Options
	reg   *metrics.Registry
	cache *resultCache
	disk  *sstcache.Store // persistent second tier; nil when disabled
	pool  *experiments.Pool

	baseCtx context.Context
	cancel  context.CancelFunc
	jobsWG  sync.WaitGroup

	mu       sync.Mutex
	draining bool
	active   int             // admitted, not yet finished
	running  int             // holding a pool slot
	inflight map[string]*job // cache key -> the job computing it
	jobs     map[string]*job // job id -> job (bounded history)
	history  []string        // finished job ids, oldest first
	nextID   uint64

	// runFn performs one simulation attempt (1-based; retries after
	// transient errors re-invoke it with the next attempt number); tests
	// substitute a controllable fake to pin down coalescing and admission
	// without timing real runs. The []byte is the run's trace document (nil
	// unless c.Trace).
	runFn func(ctx context.Context, c canonical, attempt int) (RunResult, metrics.Snapshot, []byte, error)

	simMu  sync.Mutex
	simAgg metrics.Snapshot

	log     *slog.Logger
	nextReq atomic.Uint64 // generated X-Request-ID sequence

	cRequests   *metrics.Counter
	cDiskHits   *metrics.Counter
	cDeadlines  *metrics.Counter
	cRejected   *metrics.Counter
	cCoalesced  *metrics.Counter
	cJobsDone   *metrics.Counter
	cJobsFailed *metrics.Counter
	cJobPanics  *metrics.Counter
	cJobRetries *metrics.Counter
	cJobSecs    *metrics.Counter
	cReqSecs    *metrics.Counter
	cDiagnoses  *metrics.Counter
	cVerdicts   *metrics.Counter
	cDoctorSecs *metrics.Counter
	gActive     *metrics.Gauge
	gQueueDepth *metrics.Gauge
	hReqDur     *metrics.Histogram
	hQueueWait  *metrics.Histogram
}

// New builds a Server; it owns a fresh metrics registry exposed at /metrics.
// When opts.DiskCacheDir is set it also opens (recovering any existing
// segments) the persistent SSTable tier; a store that cannot be opened is a
// configuration error, not a degraded mode.
func New(opts Options) (*Server, error) {
	opts = opts.withDefaults()
	reg := metrics.New()
	var disk *sstcache.Store
	if opts.DiskCacheDir != "" {
		var err error
		disk, err = sstcache.Open(opts.DiskCacheDir, sstcache.Options{
			MemtableBytes: opts.DiskCacheMemtableBytes,
			Registry:      reg,
			ReadTamper:    opts.DiskReadTamper,
		})
		if err != nil {
			return nil, fmt.Errorf("server: open disk cache: %w", err)
		}
	}
	ctx, cancel := context.WithCancel(context.Background())
	s := &Server{
		opts:        opts,
		reg:         reg,
		cache:       newResultCache(opts.CacheBytes, reg),
		disk:        disk,
		pool:        experiments.NewPool(opts.Workers),
		baseCtx:     ctx,
		cancel:      cancel,
		inflight:    make(map[string]*job),
		jobs:        make(map[string]*job),
		cRequests:   reg.Counter("server_requests"),
		cDiskHits:   reg.Counter("server_cache_disk_hits"),
		cDeadlines:  reg.Counter("server_deadline_timeouts"),
		cRejected:   reg.Counter("server_rejected"),
		cCoalesced:  reg.Counter("server_coalesced"),
		cJobsDone:   reg.Counter("server_jobs_done"),
		cJobsFailed: reg.Counter("server_jobs_failed"),
		cJobPanics:  reg.Counter("server_job_panics_total"),
		cJobRetries: reg.Counter("server_job_retries_total"),
		cJobSecs:    reg.Counter("server_job_seconds"),
		cReqSecs:    reg.Counter("server_request_seconds"),
		cDiagnoses:  reg.Counter("doctor_diagnoses_total"),
		cVerdicts:   reg.Counter("doctor_verdicts_total"),
		cDoctorSecs: reg.Counter("doctor_seconds"),
		gActive:     reg.Gauge("server_jobs_active"),
		gQueueDepth: reg.Gauge("server_queue_depth"),
		hReqDur:     reg.Histogram("server_request_duration_seconds", metrics.DefaultDurationBuckets()),
		hQueueWait:  reg.Histogram("server_job_queue_wait_seconds", metrics.DefaultDurationBuckets()),
	}
	s.log = opts.Logger
	if s.log == nil {
		s.log = DiscardLogger()
	}
	s.runFn = s.simulate
	return s, nil
}

// Registry exposes the server's metrics registry (the /metrics content).
func (s *Server) Registry() *metrics.Registry { return s.reg }

// Pool exposes the shared simulation pool so batch runs in the same process
// (experiments.Config.Pool) contend with served requests instead of
// oversubscribing the host.
func (s *Server) Pool() *experiments.Pool { return s.pool }

// Handler returns the HTTP API. Every response carries an X-Request-ID
// (echoed from the request when the client supplied one) and every request
// is logged and observed into server_request_duration_seconds.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.HandleFunc("GET /version", s.handleVersion)
	mux.HandleFunc("GET /v1/experiments", s.handleExperiments)
	mux.HandleFunc("POST /v1/run", s.handleRun)
	mux.HandleFunc("GET /v1/jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /v1/jobs/{id}/trace", s.handleJobTrace)
	mux.HandleFunc("GET /v1/jobs/{id}/diagnosis", s.handleJobDiagnosis)
	return s.instrument(mux)
}

// statusWriter captures the status code for the request log.
type statusWriter struct {
	http.ResponseWriter
	code int
}

func (w *statusWriter) WriteHeader(code int) {
	w.code = code
	w.ResponseWriter.WriteHeader(code)
}

// instrument wraps the API with request-ID propagation, the request-duration
// histogram, and one structured log line per request.
func (s *Server) instrument(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-ID")
		if reqID == "" {
			reqID = fmt.Sprintf("req-%06d", s.nextReq.Add(1))
		}
		w.Header().Set("X-Request-ID", reqID)
		sw := &statusWriter{ResponseWriter: w, code: http.StatusOK}
		next.ServeHTTP(sw, r)
		elapsed := time.Since(start)
		s.hReqDur.Observe(elapsed.Seconds())
		s.log.Info("request",
			"request_id", reqID,
			"method", r.Method,
			"path", r.URL.Path,
			"status", sw.code,
			"duration_ms", float64(elapsed.Microseconds())/1e3,
		)
	})
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	io.WriteString(w, "ok\n")
}

func (s *Server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		// Load balancers honoring Retry-After stop probing a draining
		// instance instead of hammering it through shutdown.
		w.Header().Set("Retry-After", "5")
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	io.WriteString(w, "ok\n")
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	// The registry has no labeled series, so the conventional build_info
	// gauge is rendered by hand.
	v := ReadBuildInfo()
	fmt.Fprintf(w, "# TYPE pmemd_build_info gauge\npmemd_build_info{version=%q,go_version=%q,revision=%q} 1\n",
		v.Version, v.GoVersion, v.Revision)
	s.reg.WritePrometheus(w, "")
	s.simMu.Lock()
	sim := s.simAgg
	s.simMu.Unlock()
	// The cumulative simulation counters scrape under sim_, so one
	// dashboard watches both serving health and modeled hardware traffic.
	sim.WritePrometheus(w, "sim_")
}

func (s *Server) handleExperiments(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, experiments.Catalog())
}

func (s *Server) handleRun(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.cRequests.Inc()
	defer func() { s.cReqSecs.Add(time.Since(start).Seconds()) }()

	dec := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxRequestBytes))
	dec.DisallowUnknownFields()
	var req RunRequest
	if err := dec.Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("bad request body: %v", err))
		return
	}
	canon, err := req.canonicalize(s.opts.MaxSF)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	deadline, hasDeadline, err := ParseDeadline(r)
	if err != nil {
		writeError(w, http.StatusBadRequest, err.Error())
		return
	}
	key := canon.key()

	s.mu.Lock()
	if res, ok := s.cache.get(key); ok {
		// Traced hits still get a job handle: the trace endpoint is
		// job-addressed, so synthesize an already-done job around the cached
		// bytes. The trace is the same document the cold run recorded.
		var jobID string
		if canon.Trace {
			jobID = s.finishedJobLocked(canon, key, res).id
		}
		s.mu.Unlock()
		if jobID != "" {
			w.Header().Set("X-Pmemd-Job", jobID)
		}
		serveResult(w, res, "hit")
		return
	}
	s.mu.Unlock()

	// Second tier: the persistent SSTable store. A hit here — typically the
	// first ask after a restart — is promoted into the LRU so the next one
	// is a memory hit, and served without recomputing anything.
	if s.disk != nil {
		if body, trace, ok := s.disk.Get(key); ok {
			s.cDiskHits.Inc()
			res := newResult(body, trace)
			s.mu.Lock()
			s.cache.put(key, res)
			var jobID string
			if canon.Trace {
				jobID = s.finishedJobLocked(canon, key, res).id
			}
			s.mu.Unlock()
			if jobID != "" {
				w.Header().Set("X-Pmemd-Job", jobID)
			}
			serveResult(w, res, "disk")
			return
		}
	}

	s.mu.Lock()
	// Re-check the LRU: a concurrent identical request may have finished
	// while this one was probing the disk tier.
	if res, ok := s.cache.getIfPresent(key); ok {
		var jobID string
		if canon.Trace {
			jobID = s.finishedJobLocked(canon, key, res).id
		}
		s.mu.Unlock()
		if jobID != "" {
			w.Header().Set("X-Pmemd-Job", jobID)
		}
		serveResult(w, res, "hit")
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	j, coalesced := s.inflight[key]
	if coalesced {
		s.cCoalesced.Inc()
	} else {
		if s.active >= s.opts.Workers+s.opts.QueueDepth {
			s.cRejected.Inc()
			s.mu.Unlock()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusTooManyRequests, "job queue full; retry later")
			return
		}
		jobTimeout := s.opts.JobTimeout
		if hasDeadline && deadline < jobTimeout {
			// A caller with less time than the job cap gets a job bounded by
			// its own budget: work the caller can never collect synchronously
			// is still admitted (async pollers may come back for it), but a
			// fleet-propagated deadline keeps a wedged run from holding a pool
			// slot long past everyone who wanted it.
			jobTimeout = deadline
		}
		j = s.startJobLocked(canon, key, jobTimeout)
	}
	s.mu.Unlock()

	if req.Async {
		w.Header().Set("Location", "/v1/jobs/"+j.id)
		writeJSON(w, http.StatusAccepted, map[string]string{
			"job_id": j.id, "state": "queued", "href": "/v1/jobs/" + j.id,
		})
		return
	}

	waitCtx := r.Context()
	if hasDeadline {
		var cancelWait context.CancelFunc
		waitCtx, cancelWait = context.WithTimeout(waitCtx, deadline)
		defer cancelWait()
	}
	select {
	case <-j.done:
	case <-waitCtx.Done():
		// The client gave up (disconnect or its own deadline) or the
		// propagated budget ran out. Either way the job keeps running: its
		// result still lands in the cache for the next asker.
		if errors.Is(waitCtx.Err(), context.DeadlineExceeded) && r.Context().Err() == nil {
			s.cDeadlines.Inc()
			w.Header().Set("Retry-After", "1")
			writeError(w, http.StatusGatewayTimeout,
				"deadline exceeded waiting for job; poll /v1/jobs/"+j.id)
			return
		}
		writeError(w, http.StatusGatewayTimeout,
			"request canceled while waiting; poll /v1/jobs/"+j.id)
		return
	}
	s.mu.Lock()
	res, errMsg := j.result, j.errMsg
	s.mu.Unlock()
	if errMsg != "" {
		writeError(w, http.StatusInternalServerError, errMsg)
		return
	}
	state := "miss"
	if coalesced {
		state = "coalesced"
	}
	w.Header().Set("X-Pmemd-Job", j.id)
	serveResult(w, res, state)
}

func (s *Server) handleJobTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	state, trace := j.state, j.trace
	s.mu.Unlock()
	if state != "done" {
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is %s, not done", id, state))
		return
	}
	if trace == nil {
		writeError(w, http.StatusNotFound,
			`job was not traced; submit the run with "trace": true`)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(trace)
}

// handleJobDiagnosis serves a done job's doctor verdict alone. The document
// is sliced verbatim out of the stored result body (never re-marshaled), so
// the served bytes are identical cold, cached, or replayed from the disk
// tier — the same byte-stability contract the body itself keeps.
func (s *Server) handleJobDiagnosis(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	state, body := j.state, j.body
	s.mu.Unlock()
	if state != "done" {
		writeError(w, http.StatusConflict, fmt.Sprintf("job %s is %s, not done", id, state))
		return
	}
	var probe struct {
		Diagnosis json.RawMessage `json:"diagnosis"`
	}
	if err := json.Unmarshal(body, &probe); err != nil || len(probe.Diagnosis) == 0 {
		writeError(w, http.StatusNotFound, "job result carries no diagnosis")
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(probe.Diagnosis)
}

// BuildInfo is the GET /version payload, assembled from the build metadata
// the Go linker embeds in the binary.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"go_version"`
	Module    string `json:"module,omitempty"`
	Revision  string `json:"vcs_revision,omitempty"`
	VCSTime   string `json:"vcs_time,omitempty"`
}

// ReadBuildInfo resolves the binary's build metadata; fields that the build
// did not stamp stay empty and Version falls back to "unknown".
func ReadBuildInfo() BuildInfo {
	v := BuildInfo{Version: "unknown", GoVersion: runtime.Version()}
	bi, ok := debug.ReadBuildInfo()
	if !ok {
		return v
	}
	if bi.Main.Version != "" {
		v.Version = bi.Main.Version
	}
	v.Module = bi.Main.Path
	for _, kv := range bi.Settings {
		switch kv.Key {
		case "vcs.revision":
			v.Revision = kv.Value
		case "vcs.time":
			v.VCSTime = kv.Value
		}
	}
	return v
}

func (s *Server) handleVersion(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, ReadBuildInfo())
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	s.mu.Lock()
	j, ok := s.jobs[id]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, "unknown job "+id)
		return
	}
	st := JobStatus{
		ID:         j.id,
		Experiment: j.canon.ID,
		Key:        j.key,
		State:      j.state,
		Error:      j.errMsg,
		CreatedAt:  j.created,
	}
	if !j.started.IsZero() {
		t := j.started
		st.StartedAt = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		st.FinishedAt = &t
	}
	if j.state == "done" {
		st.Result = json.RawMessage(j.body)
		if j.trace != nil {
			st.TraceHref = "/v1/jobs/" + j.id + "/trace"
		}
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

// JobStatus is the GET /v1/jobs/{id} payload. Unlike RunResult it carries
// wall-clock metadata, so it is not byte-stable across runs.
type JobStatus struct {
	ID         string          `json:"id"`
	Experiment string          `json:"experiment"`
	Key        string          `json:"key"`
	State      string          `json:"state"`
	Error      string          `json:"error,omitempty"`
	CreatedAt  time.Time       `json:"created_at"`
	StartedAt  *time.Time      `json:"started_at,omitempty"`
	FinishedAt *time.Time      `json:"finished_at,omitempty"`
	Result     json.RawMessage `json:"result,omitempty"`
	TraceHref  string          `json:"trace_href,omitempty"`
}

func (s *Server) startJobLocked(c canonical, key string, timeout time.Duration) *job {
	s.nextID++
	j := &job{
		id:      fmt.Sprintf("job-%06d", s.nextID),
		key:     key,
		canon:   c,
		created: time.Now(),
		timeout: timeout,
		state:   "queued",
		done:    make(chan struct{}),
	}
	s.inflight[key] = j
	s.jobs[j.id] = j
	s.active++
	s.gActive.Set(float64(s.active))
	s.gQueueDepth.Set(float64(s.active - s.running))
	s.jobsWG.Add(1)
	s.log.Info("job admitted", "job_id", j.id, "experiment", c.ID, "key", key)
	go s.run(j)
	return j
}

// finishedJobLocked registers an already-done job around cached bytes, so a
// cache hit on a traced request still yields a job handle whose trace
// endpoint serves the cold run's exact document.
func (s *Server) finishedJobLocked(c canonical, key string, res result) *job {
	s.nextID++
	now := time.Now()
	j := &job{
		id:       fmt.Sprintf("job-%06d", s.nextID),
		key:      key,
		canon:    c,
		created:  now,
		finished: now,
		state:    "done",
		result:   res,
		done:     make(chan struct{}),
	}
	close(j.done)
	s.jobs[j.id] = j
	s.history = append(s.history, j.id)
	s.pruneHistoryLocked()
	return j
}

func (s *Server) pruneHistoryLocked() {
	for len(s.history) > maxRetainedJobs {
		delete(s.jobs, s.history[0])
		s.history = s.history[1:]
	}
}

// run executes one job: wait for a slot in the shared pool, simulate, store
// the result, publish. It is the only writer of the job's terminal state.
func (s *Server) run(j *job) {
	defer s.jobsWG.Done()
	ctx, cancel := context.WithTimeout(s.baseCtx, j.timeout)
	defer cancel()

	var res RunResult
	var sim metrics.Snapshot
	var trace []byte
	err := s.pool.Acquire(ctx)
	if err == nil {
		s.hQueueWait.Observe(time.Since(j.created).Seconds())
		s.mu.Lock()
		j.state = "running"
		j.started = time.Now()
		s.running++
		s.gQueueDepth.Set(float64(s.active - s.running))
		s.mu.Unlock()

		res, sim, trace, err = s.guardedRun(ctx, j)
		s.pool.Release()
	}
	var out result
	if err == nil {
		var body []byte
		if body, err = json.Marshal(res); err == nil {
			out = newResult(body, trace)
		}
	}

	s.mu.Lock()
	delete(s.inflight, j.key)
	s.active--
	if !j.started.IsZero() {
		s.running--
		s.cJobSecs.Add(time.Since(j.started).Seconds())
	}
	s.gActive.Set(float64(s.active))
	s.gQueueDepth.Set(float64(s.active - s.running))
	j.finished = time.Now()
	if err != nil {
		j.state = "failed"
		j.errMsg = err.Error()
		s.cJobsFailed.Inc()
	} else {
		j.state = "done"
		j.result = out
		s.cache.put(j.key, out)
		s.cJobsDone.Inc()
	}
	s.history = append(s.history, j.id)
	s.pruneHistoryLocked()
	s.mu.Unlock()

	if err != nil {
		s.log.Warn("job failed", "job_id", j.id, "experiment", j.canon.ID, "error", err.Error())
	} else {
		// Write through to the persistent tier (outside s.mu — flushes do
		// file IO). A disk write failure only costs durability, never the
		// response, so it is logged and absorbed.
		if s.disk != nil {
			if derr := s.disk.Put(j.key, out.body, trace); derr != nil {
				s.log.Warn("disk cache write failed", "job_id", j.id, "error", derr.Error())
			}
		}
		s.log.Info("job done", "job_id", j.id, "experiment", j.canon.ID,
			"seconds", time.Since(j.created).Seconds(), "traced", trace != nil)
	}

	close(j.done)
	if err == nil {
		s.simMu.Lock()
		s.simAgg = metrics.Merge(s.simAgg, sim)
		s.simMu.Unlock()
	}
}

// guardedRun drives runFn to completion for one job: transient errors are
// retried a bounded number of times with jittered exponential backoff, and a
// panicking simulation is converted into a structured job failure instead of
// taking the daemon down.
func (s *Server) guardedRun(ctx context.Context, j *job) (RunResult, metrics.Snapshot, []byte, error) {
	backoff := s.opts.RetryBackoff
	for attempt := 1; ; attempt++ {
		res, sim, trace, err := s.attemptRun(ctx, j, attempt)
		if err == nil || !faults.IsTransient(err) || attempt > s.opts.RetryAttempts || ctx.Err() != nil {
			return res, sim, trace, err
		}
		s.cJobRetries.Inc()
		s.log.Warn("job retrying after transient error",
			"job_id", j.id, "experiment", j.canon.ID, "attempt", attempt, "error", err.Error())
		// Jitter is deterministic per (job key, attempt): wall-clock pacing
		// only, never part of the simulated result.
		sleep := backoff + time.Duration(float64(backoff)*retryJitter(j.key, attempt))
		select {
		case <-time.After(sleep):
		case <-ctx.Done():
			return res, sim, trace, ctx.Err()
		}
		backoff *= 2
	}
}

// attemptRun is one runFn invocation with panic containment.
func (s *Server) attemptRun(ctx context.Context, j *job, attempt int) (res RunResult, sim metrics.Snapshot, trace []byte, err error) {
	defer func() {
		if r := recover(); r != nil {
			s.cJobPanics.Inc()
			err = fmt.Errorf("experiment %s: simulation panicked: %v", j.canon.ID, r)
			s.log.Error("job panicked", "job_id", j.id, "experiment", j.canon.ID, "panic", fmt.Sprint(r))
		}
	}()
	return s.runFn(ctx, j.canon, attempt)
}

// retryJitter maps (key, attempt) to a stable fraction in [0, 1).
func retryJitter(key string, attempt int) float64 {
	h := fnv.New64a()
	io.WriteString(h, key)
	fmt.Fprintf(h, "/%d", attempt)
	return float64(h.Sum64()%1000) / 1000
}

// simulate is the production runFn: one experiment on the canonical
// request's machine model. The pool slot is already held by the caller. The
// run is deterministic over simulated time, so the returned trace bytes are
// identical however often the same canonical request is re-simulated.
func (s *Server) simulate(ctx context.Context, c canonical, attempt int) (RunResult, metrics.Snapshot, []byte, error) {
	e, err := experiments.ByID(c.ID)
	if err != nil {
		return RunResult{}, metrics.Snapshot{}, nil, err
	}
	// A fault plan's transient-error events fail the first N attempts before
	// any simulation runs, so the eventual result bytes (and the cache) are
	// exactly what a fault-free serving path would have produced.
	if p := c.Machine.Faults; p != nil && attempt <= p.TransientFailures() {
		return RunResult{}, metrics.Snapshot{}, nil,
			fmt.Errorf("experiment %s: injected transient failure %d/%d: %w",
				e.ID, attempt, p.TransientFailures(), faults.ErrTransient)
	}
	cfg := c.experimentConfig()
	reg := metrics.New()
	cfg.Metrics = reg
	var rec *simtrace.Recorder
	if c.Trace {
		rec = simtrace.New()
		cfg.Trace = rec
	}
	tables, err := e.Run(cfg.WithContext(ctx))
	if err != nil {
		return RunResult{}, metrics.Snapshot{}, nil, fmt.Errorf("experiment %s: %w", e.ID, err)
	}
	var text bytes.Buffer
	fmt.Fprintf(&text, "# %s: %s\n\n", e.ID, e.Title)
	for _, t := range tables {
		t.Fprint(&text)
	}
	snap := reg.Snapshot()
	out := RunResult{ID: e.ID, Title: e.Title, Tables: tables, Text: text.String()}
	if c.Metrics {
		ms := snap
		out.Metrics = &ms
	}
	// Diagnose every run over its own snapshot (and trace timeline when the
	// run was traced). The diagnosis lives inside the result body, so cache
	// hits — memory, disk, or via the fleet — replay the cold run's exact
	// verdict bytes. Wall time goes to doctor_seconds only; it never touches
	// the body.
	dstart := time.Now()
	var tsum *doctor.TraceSummary
	if rec != nil {
		// Summarize before EmitTrace: the diagnosis must not see (and thereby
		// depend on) its own output track.
		tsum, _ = doctor.SummarizeTrace(rec.Bytes())
	}
	diag := doctor.Diagnose(snap, tsum)
	out.Diagnosis = diag
	s.cDiagnoses.Inc()
	s.cVerdicts.Add(float64(len(diag.Verdicts)))
	s.cDoctorSecs.Add(time.Since(dstart).Seconds())
	var traceBytes []byte
	if rec != nil {
		doctor.EmitTrace(rec, diag)
		traceBytes = rec.Bytes()
	}
	return out, snap, traceBytes, nil
}

// BeginDrain stops admission: /readyz turns 503 and new submissions are
// refused while in-flight jobs (and handlers waiting on them) finish.
func (s *Server) BeginDrain() {
	s.mu.Lock()
	s.draining = true
	s.mu.Unlock()
}

// Drain stops admission and blocks until every in-flight job has finished.
// If ctx expires first, the jobs' contexts are canceled and Drain waits for
// them to unwind before returning ctx's error.
func (s *Server) Drain(ctx context.Context) error {
	s.BeginDrain()
	done := make(chan struct{})
	go func() {
		s.jobsWG.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.cancel()
		<-done
		return ctx.Err()
	}
}

// Close cancels all in-flight work, waits for it to unwind, and flushes
// the persistent tier's memtable so everything served this lifetime is
// readable after a restart.
func (s *Server) Close() {
	s.BeginDrain()
	s.cancel()
	s.jobsWG.Wait()
	if s.disk != nil {
		if err := s.disk.Close(); err != nil {
			s.log.Warn("disk cache close failed", "error", err.Error())
		}
	}
}

// ParseDeadline parses the request's DeadlineHeader as a positive finite
// millisecond budget. An absent header is not an error (no deadline); a
// present-but-garbage one is — a client that meant to bound a request must
// not silently get an unbounded one. Exported so the fleet router applies
// the exact same rules at its edge.
func ParseDeadline(r *http.Request) (time.Duration, bool, error) {
	raw := r.Header.Get(DeadlineHeader)
	if raw == "" {
		return 0, false, nil
	}
	ms, err := strconv.ParseFloat(raw, 64)
	if err != nil || math.IsNaN(ms) || math.IsInf(ms, 0) || ms <= 0 {
		return 0, false, fmt.Errorf("malformed %s header %q: want positive milliseconds", DeadlineHeader, raw)
	}
	return time.Duration(ms * float64(time.Millisecond)), true, nil
}

// serveResult writes res with the content hash taken when its body was
// produced or read back from disk, never recomputed from the bytes being
// served.
func serveResult(w http.ResponseWriter, res result, cacheState string) {
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("X-Pmemd-Cache", cacheState)
	w.Header().Set(ContentSHAHeader, res.sha)
	w.Write(res.body)
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
