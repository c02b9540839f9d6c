package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/fleet"
	"repro/internal/server"
)

// serveExperiments are the cheap quick experiments the request keys draw
// from; each key pairs one with a machine what-if override.
var serveExperiments = [...]string{
	"fig03", "fig04", "fig05", "fig06", "fig07", "fig08", "fig09", "fig10", "fig11", "fig12", "fig13",
	"abl01", "abl02", "abl03", "abl04", "abl05", "dax01", "ssd01",
}

const (
	// serveOverrides what-if machines per experiment: 18 x 600 = 10,800
	// distinct canonical keys.
	serveOverrides = 600
	serveKeys      = len(serveExperiments) * serveOverrides
	// zipfS is the popularity skew: the head stays in the LRU, the middle
	// is evicted and comes back from the SSTable tier, the tail computes.
	zipfS = 1.2
	// respellShare of requests are spelled differently from the canonical
	// form (field order, spelled-out defaults).
	respellShare = 0.2
	// lruBytes is each worker's result-cache budget, far below the bytes of
	// the distinct results (about 2 KB each).
	lruBytes = 256 << 10
	// memtableBytes makes the SSTable tier flush and compact within a run.
	memtableBytes = 128 << 10
	// warmupRequests are sent closed-loop during set-up.
	warmupRequests = 600
	// sloMS is the latency limit on an open-loop phase's p99.
	sloMS = 25.0
	// maxLag aborts a phase whose generator has fallen this far behind its
	// schedule: the rate is past capacity, and the run must stay bounded.
	maxLag = time.Second
)

// servePhases are the load phases with the share of the run each gets, in
// run order: open loops at fixed arrival rates (requests/s), then a closed
// loop (rate 0) whose throughput is the fleet's capacity. The open-loop
// rates sit below that capacity on a 2-vCPU host; p50_ms is taken at
// operatingPhase.
var servePhases = []struct{ rate, share float64 }{
	{100, 0.5}, {300, 0.1}, {1000, 0.15}, {0, 0.25},
}

const operatingPhase = 0

// serveConns is the number of client connections, and of requests in
// flight: no more than the host has CPUs.
var serveConns = runtime.NumCPU()

// request is one generated request: which canonical key, and how it is
// spelled.
type request struct {
	key     int
	variant int // 0 canonical, 1 reordered, 2 spelled-out defaults
}

// reqGen is the seeded request generator: Zipf popularity over a seeded
// permutation of the key space.
type reqGen struct {
	rng  *rand.Rand
	zipf *rand.Zipf
	perm []int
}

func newReqGen(seed int64) *reqGen {
	rng := rand.New(rand.NewSource(seed))
	return &reqGen{rng: rng, zipf: rand.NewZipf(rng, zipfS, 1, uint64(serveKeys-1)), perm: rng.Perm(serveKeys)}
}

func (g *reqGen) next() request {
	r := request{key: g.perm[g.zipf.Uint64()]}
	if g.rng.Float64() < respellShare {
		r.variant = 1 + g.rng.Intn(2)
	}
	return r
}

// schedule draws Poisson arrivals at rate for d: offsets from the phase
// start, with the request due at each.
func (g *reqGen) schedule(rate float64, d time.Duration) ([]time.Duration, []request) {
	var at []time.Duration
	var reqs []request
	t := 0.0
	for {
		t += g.rng.ExpFloat64() / rate
		if t >= d.Seconds() {
			return at, reqs
		}
		at = append(at, time.Duration(t*float64(time.Second)))
		reqs = append(reqs, g.next())
	}
}

// body spells the request's JSON. Every key runs at sf 0.02, which keeps
// ssd01's data set small.
func (r request) body() []byte {
	exp := serveExperiments[r.key%len(serveExperiments)]
	o := r.key / len(serveExperiments)
	waste := strconv.FormatFloat(0.5+float64(o%20)*0.02, 'g', -1, 64)
	window := strconv.FormatFloat(3+float64(o/20)*0.05, 'g', -1, 64)
	switch r.variant {
	case 1:
		return []byte(`{"machine":{"GroupedWriteWindowFactor":` + window + `,"PrefetchWasteFactor":` + waste +
			`},"sf":0.02,"quick":true,"id":"` + exp + `"}`)
	case 2:
		return []byte(`{"id":"` + exp + `","quick":true,"sf":0.02,"metrics":false,"trace":false,"faults":null,` +
			`"async":false,"machine":{"PrefetcherEnabled":true,"PrefetchWasteFactor":` + waste +
			`,"GroupedWriteWindowFactor":` + window + `}}`)
	default:
		return []byte(`{"id":"` + exp + `","quick":true,"sf":0.02,"machine":{"PrefetchWasteFactor":` + waste +
			`,"GroupedWriteWindowFactor":` + window + `}}`)
	}
}

// response is what the client saw of one request.
type response struct {
	status int
	tier   string // X-Pmemd-Cache
	worker string // X-Pmemfleet-Worker
	sha    string // X-Pmemd-Content-SHA256
	body   []byte
	err    error
}

// checkResponse validates one response: a 2xx status, a body matching its
// X-Pmemd-Content-SHA256, and the same bytes as every earlier response for
// the key (seen maps key to body hash). "" means correct.
func checkResponse(key int, status int, shaHeader string, body []byte, seen *sync.Map) string {
	if status < 200 || status > 299 {
		return fmt.Sprintf("key %d: status %d: %.200s", key, status, body)
	}
	sum := sha256.Sum256(body)
	if got := hex.EncodeToString(sum[:]); got != shaHeader {
		return fmt.Sprintf("key %d: body hash %s, header says %s", key, got, shaHeader)
	}
	if prev, loaded := seen.LoadOrStore(key, sum); loaded && prev.([32]byte) != sum {
		return fmt.Sprintf("key %d: body differs from an earlier response for the same canonical key", key)
	}
	return ""
}

type serveInstance struct {
	seed    int64
	dir     string
	workers []*server.Server
	wts     []*httptest.Server
	router  *httptest.Server
	client  *http.Client
	owners  map[string]string // worker name -> URL
	gen     *reqGen
	seen    sync.Map
}

// setupServe boots two pmemd workers (pool of one each, a small LRU, an
// SSTable tier in a fresh directory) behind an affinity router, all over
// loopback, then warms up: one request per experiment on the default
// machine, val01 for the accuracy figure, and warmupRequests Zipf draws
// sent closed-loop.
func setupServe(seed int64, outDir string) (inst instance, err error) {
	dir, err := os.MkdirTemp(outDir, "serve-")
	if err != nil {
		return nil, err
	}
	s := &serveInstance{seed: seed, dir: dir, owners: map[string]string{}, gen: newReqGen(seed)}
	defer func() {
		if err != nil {
			s.close()
		}
	}()
	var ws []fleet.Worker
	for i := 0; i < 2; i++ {
		srv, err := server.New(server.Options{Workers: 1, CacheBytes: lruBytes,
			DiskCacheDir: filepath.Join(dir, fmt.Sprintf("w%d", i)), DiskCacheMemtableBytes: memtableBytes})
		if err != nil {
			return nil, err
		}
		ts := httptest.NewServer(srv.Handler())
		s.workers = append(s.workers, srv)
		s.wts = append(s.wts, ts)
		name := fmt.Sprintf("w%d", i)
		ws = append(ws, fleet.Worker{Name: name, URL: ts.URL})
		s.owners[name] = ts.URL
	}
	rt, err := fleet.New(fleet.Options{Workers: ws, Policy: fleet.PolicyAffinity})
	if err != nil {
		return nil, err
	}
	s.router = httptest.NewServer(rt.Handler())
	s.client = &http.Client{Transport: &http.Transport{MaxConnsPerHost: serveConns, MaxIdleConnsPerHost: serveConns}}

	for _, id := range append(serveExperiments[:], "val01") {
		b := []byte(`{"id":"` + id + `","quick":true,"sf":0.02}`)
		resp := s.post(s.router.URL, b)
		if msg := checkResponse(-1, resp.status, resp.sha, resp.body, &sync.Map{}); resp.err != nil || msg != "" {
			return nil, fmt.Errorf("warm-up %s: %v %s", id, resp.err, msg)
		}
	}
	for i := 0; i < warmupRequests; i++ {
		r := s.gen.next()
		resp := s.post(s.router.URL, r.body())
		if msg := checkResponse(r.key, resp.status, resp.sha, resp.body, &s.seen); resp.err != nil || msg != "" {
			return nil, fmt.Errorf("warm-up request: %v %s", resp.err, msg)
		}
	}
	return s, nil
}

// val01Error is the mean relative error of a served val01 scorecard's
// measured anchors against the paper's values, in percent.
func val01Error(body []byte) (float64, error) {
	var res server.RunResult
	if err := json.Unmarshal(body, &res); err != nil {
		return 0, err
	}
	if len(res.Tables) != 1 || len(res.Tables[0].Series) != len(val01Anchors) {
		return 0, fmt.Errorf("val01: unexpected scorecard shape")
	}
	sum := 0.0
	for _, s := range res.Tables[0].Series {
		sum += math.Abs(s.Values[1]-s.Values[0]) / s.Values[0]
	}
	return sum / float64(len(val01Anchors)) * 100, nil
}

// post sends one run request and reads the whole response.
func (s *serveInstance) post(url string, body []byte) response {
	resp, err := s.client.Post(url+"/v1/run", "application/json", bytes.NewReader(body))
	if err != nil {
		return response{err: err}
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return response{status: resp.StatusCode, tier: resp.Header.Get("X-Pmemd-Cache"),
		worker: resp.Header.Get("X-Pmemfleet-Worker"), body: b, err: err,
		sha: resp.Header.Get(server.ContentSHAHeader)}
}

func (s *serveInstance) close() error {
	if s.router != nil {
		s.router.Close()
	}
	for _, ts := range s.wts {
		ts.Close()
	}
	for _, w := range s.workers {
		w.Close()
	}
	if s.client != nil {
		s.client.CloseIdleConnections()
	}
	return os.RemoveAll(s.dir)
}

// sample is one timed request of a phase.
type sample struct {
	ms   float64 // to the last body byte (see runPhase for from when)
	tier string
	ok   bool
}

// phaseResult is one load phase.
type phaseResult struct {
	rate    float64
	samples []sample
	lateMS  []float64 // how late an idle sender started a request
	aborted bool
	drainMS float64 // last completion after the last due time
	cpuS    float64 // process CPU seconds the phase used
}

func (p *phaseResult) p99() float64 {
	var xs []float64
	for _, s := range p.samples {
		xs = append(xs, s.ms)
	}
	return quantile(xs, 0.99)
}

// meetsSLO: p99 under the limit, nothing failed, and no growing backlog
// (the phase drained within the limit of its last due time).
func (p *phaseResult) meetsSLO() bool {
	for _, s := range p.samples {
		if !s.ok {
			return false
		}
	}
	return !p.aborted && len(p.samples) > 0 && p.p99() <= sloMS && p.drainMS <= sloMS
}

// closedLoopCap bounds the requests a closed-loop phase may draw, per
// second of phase (well above what loopback serving reaches).
const closedLoopCap = 20000

// runPhase drives one phase for d with serveConns senders taking requests
// in order. In an open loop (rate > 0) a sender sleeps until a request is
// due and times it from its due time, so a stall is charged to every
// request it delays. In a closed loop (rate 0) a sender sends its next
// request as soon as the previous one completes.
func (s *serveInstance) runPhase(rate float64, d time.Duration, sp *spans, opBase int64, o *outcome) *phaseResult {
	var at []time.Duration
	var reqs []request
	if rate > 0 {
		at, reqs = s.gen.schedule(rate, d)
	} else {
		reqs = make([]request, int(closedLoopCap*d.Seconds()))
		for i := range reqs {
			reqs[i] = s.gen.next()
		}
	}
	pr := &phaseResult{rate: rate, samples: make([]sample, len(reqs))}
	sent := make([]bool, len(reqs))
	late := make([][]float64, serveConns)
	var next atomic.Int64
	var aborted atomic.Bool
	var failed atomic.Int64
	var lastDone atomic.Int64
	cpu0 := cpuSeconds()
	start := time.Now()
	var wg sync.WaitGroup
	for c := 0; c < serveConns; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for {
				i := int(next.Add(1)) - 1
				if i >= len(reqs) || aborted.Load() || (rate == 0 && time.Since(start) >= d) {
					return
				}
				// A request is timed from its due time when the sender was
				// still busy then (the wait is the system's), and from its
				// send when the sender was idle and only its timer woke it
				// late (that lateness is the generator's, reported apart).
				from := time.Now()
				if rate > 0 {
					due := start.Add(at[i])
					if wait := time.Until(due); wait > 0 {
						time.Sleep(wait)
						from = time.Now()
						late[c] = append(late[c], float64(from.Sub(due))/1e6)
					} else if -wait > maxLag {
						aborted.Store(true)
						return
					} else {
						from = due
					}
				}
				r := reqs[i]
				root := sp.begin("request", -1, opBase+int64(i))
				t0 := time.Now()
				resp := s.post(s.router.URL, r.body())
				t1 := time.Now()
				sp.add("fleet.route+server."+tierName(resp.tier), t0, t1, root, opBase+int64(i))
				sp.end(root)
				lastDone.Store(int64(t1.Sub(start)))
				msg := ""
				if resp.err != nil {
					msg = resp.err.Error()
				} else {
					msg = checkResponse(r.key, resp.status, resp.sha, resp.body, &s.seen)
				}
				if msg != "" {
					failed.Add(1)
					fmt.Fprintln(os.Stderr, msg)
				}
				pr.samples[i] = sample{ms: float64(t1.Sub(from)) / 1e6, tier: resp.tier, ok: msg == ""}
				sent[i] = true
			}
		}(c)
	}
	wg.Wait()
	pr.cpuS = cpuSeconds() - cpu0
	kept := pr.samples[:0]
	for i, ok := range sent {
		if ok {
			kept = append(kept, pr.samples[i])
		}
	}
	pr.samples = kept
	pr.aborted = aborted.Load()
	for _, l := range late {
		pr.lateMS = append(pr.lateMS, l...)
	}
	if len(at) > 0 {
		pr.drainMS = math.Max(0, float64(time.Duration(lastDone.Load())-at[len(at)-1])/1e6)
	}
	o.attempted += len(pr.samples)
	o.failed += int(failed.Load())
	return pr
}

func tierName(t string) string {
	if t == "" {
		return "error"
	}
	return t
}

// run drives servePhases in order over d, then re-checks the served val01
// scorecard. p50_ms is taken at operatingPhase; ops_per_s is the closed loop's
// requests per CPU-second. In traced runs it also measures the router's
// overhead on LRU hits and scrapes the workers' and router's /metrics.
func (s *serveInstance) run(d time.Duration, sp *spans) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	before, err := s.scrape()
	if err != nil {
		return nil, err
	}
	var phases []*phaseResult
	for i, ph := range servePhases {
		phases = append(phases, s.runPhase(ph.rate, time.Duration(ph.share*float64(d)), sp, int64(i)<<32, o))
	}
	maxRPS := 0.0
	for _, p := range phases {
		if p.rate > 0 && p.meetsSLO() {
			maxRPS = p.rate
		}
		fmt.Fprintf(os.Stderr, "rate %g: %d requests, %.0f per CPU-second, p99 %.3f ms, drain %.3f ms, aborted %v\n",
			p.rate, len(p.samples), float64(len(p.samples))/p.cpuS, p.p99(), p.drainMS, p.aborted)
	}
	closed := phases[len(phases)-1]
	o.opsPerCPUSec = float64(len(closed.samples)) / closed.cpuS
	mid := phases[operatingPhase]
	tierMS := map[string][]float64{}
	for _, smp := range mid.samples {
		o.opMS = append(o.opMS, smp.ms)
		tierMS[smp.tier] = append(tierMS[smp.tier], smp.ms)
	}

	resp := s.post(s.router.URL, []byte(`{"id":"val01","quick":true,"sf":0.02}`))
	o.attempted++
	if msg := checkResponse(-1, resp.status, resp.sha, resp.body, &sync.Map{}); resp.err != nil || msg != "" {
		o.failed++
	} else if o.paperErrorPct, err = val01Error(resp.body); err != nil {
		return nil, err
	}
	if sp == nil {
		return o, nil
	}

	after, err := s.scrape()
	if err != nil {
		return nil, err
	}
	tiers := map[string]float64{}
	var late []float64
	total := 0.0
	for _, p := range phases {
		late = append(late, p.lateMS...)
		for _, smp := range p.samples {
			tiers[smp.tier]++
			total++
		}
	}
	delta := func(name string) float64 { return after[name] - before[name] }
	l := o.layer
	l["server.hit_ms.p50"] = quantile(tierMS["hit"], 0.5)
	l["server.disk_ms.p50"] = quantile(tierMS["disk"], 0.5)
	l["server.miss_ms.p50"] = quantile(tierMS["miss"], 0.5)
	l["server.miss_ms.p99"] = quantile(tierMS["miss"], 0.99)
	l["server.hit_ratio"] = ratio(tiers["hit"], total)
	l["server.disk_ratio"] = ratio(tiers["disk"], total)
	l["server.miss_ratio"] = ratio(tiers["miss"], total)
	l["server.coalesced_ratio"] = ratio(tiers["coalesced"], total)
	l["server.queue_wait_ms.p99"] = after.histQuantile("server_job_queue_wait_seconds", before, 0.99) * 1000
	l["server.job_ms"] = ratio(delta("server_job_seconds"), delta("server_jobs_done")) * 1000
	l["server.evictions"] = delta("server_cache_evictions")
	l["server.rejected"] = delta("server_rejected")
	l["fleet.failovers"] = delta("fleet_failovers")
	l["doctor.ms_per_diagnosis"] = ratio(delta("doctor_seconds"), delta("doctor_diagnoses_total")) * 1000
	l["sstcache.flushes"] = delta("sstcache_flushes")
	l["sstcache.compactions"] = delta("sstcache_compactions")
	l["sstcache.segments"] = after["sstcache_segments"]
	l["load.late_ms.p99"] = quantile(late, 0.99)
	overhead, err := s.routeOverheadUS(sp)
	if err != nil {
		return nil, err
	}
	l["fleet.route_overhead_us"] = overhead
	l["serve.max_rps_under_slo"] = maxRPS
	l["serve.p99_ms.r300"] = phases[1].p99()
	l["serve.p99_ms.r1000"] = phases[2].p99()
	return o, nil
}

// routeOverheadUS is the median of a routed LRU hit minus the median of
// the same request sent straight to the worker that answered it, over up
// to 200 keys of the Zipf head.
func (s *serveInstance) routeOverheadUS(sp *spans) (float64, error) {
	var routed, direct []float64
	seen := map[int]bool{}
	g := newReqGen(s.seed)
	for tries := 0; len(routed) < 200 && tries < 5000; tries++ {
		r := g.next()
		if seen[r.key] {
			continue
		}
		seen[r.key] = true
		b := r.body()
		t0 := time.Now()
		via := s.post(s.router.URL, b)
		t1 := time.Now()
		if via.err != nil || via.tier != "hit" {
			continue
		}
		owner, ok := s.owners[via.worker]
		if !ok {
			return 0, fmt.Errorf("router named unknown worker %q", via.worker)
		}
		t2 := time.Now()
		dir := s.post(owner, b)
		t3 := time.Now()
		if dir.err != nil || dir.tier != "hit" {
			continue
		}
		sp.add("probe.routed", t0, t1, -1, -1)
		sp.add("probe.direct", t2, t3, -1, -1)
		routed = append(routed, float64(t1.Sub(t0))/1e3)
		direct = append(direct, float64(t3.Sub(t2))/1e3)
	}
	return median(routed) - median(direct), nil
}

// scrapeResult is the summed /metrics exposition of the workers and the
// router.
type scrapeResult map[string]float64

func (s *serveInstance) scrape() (scrapeResult, error) {
	out := scrapeResult{}
	urls := []string{s.router.URL}
	for _, ts := range s.wts {
		urls = append(urls, ts.URL)
	}
	for _, u := range urls {
		resp, err := s.client.Get(u + "/metrics")
		if err != nil {
			return nil, err
		}
		sc := bufio.NewScanner(resp.Body)
		for sc.Scan() {
			line := sc.Text()
			if strings.HasPrefix(line, "#") {
				continue
			}
			sp := strings.LastIndexByte(line, ' ')
			if sp < 0 {
				continue
			}
			v, err := strconv.ParseFloat(line[sp+1:], 64)
			if err != nil {
				continue
			}
			out[line[:sp]] += v
		}
		resp.Body.Close()
		if err := sc.Err(); err != nil {
			return nil, err
		}
	}
	return out, nil
}

// histQuantile estimates a quantile of the observations a Prometheus
// histogram gained since base, interpolating linearly inside the bucket.
func (r scrapeResult) histQuantile(name string, base scrapeResult, q float64) float64 {
	type bucket struct{ le, n float64 }
	var bs []bucket
	prefix := name + `_bucket{le="`
	for k, v := range r {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le, err := strconv.ParseFloat(strings.TrimSuffix(k[len(prefix):], `"}`), 64)
		if err != nil {
			continue // +Inf
		}
		bs = append(bs, bucket{le, v - base[k]})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	total := r[name+"_count"] - base[name+"_count"]
	if total == 0 {
		return 0
	}
	target := q * total
	lo, prev := 0.0, 0.0
	for _, b := range bs {
		if b.n >= target {
			return lo + (b.le-lo)*ratio(target-prev, b.n-prev)
		}
		lo, prev = b.le, b.n
	}
	return lo
}
