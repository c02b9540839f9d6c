// Command perfbench is the repository's benchmark. It drives one of three
// workloads through the public functions of the program's layers, times
// every call into a layer from outside, checks every output it produces,
// and prints one JSON result line:
//
//	perfbench -workload sweep|ssb|serve -seed N -seconds S -trace 0|1
//
// With -trace 0 the result carries the end-to-end metrics; with -trace 1 it
// carries the per-layer metrics of a separate traced run (spans, a CPU
// profile, and the overhead of tracing against an untraced run of the same
// length). See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"time"

	"repro/internal/experiments"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workload is one named traffic mix. setup builds its state; the returned
// instance runs until the deadline and is closed afterwards.
type workload struct {
	name string
	// setups is how many times setup runs in a timed run; setup_s is the
	// median, the last instance is the one measured.
	setups int
	setup  func(seed int64, outDir string) (instance, error)
}

type instance interface {
	run(d time.Duration, sp *spans) (*outcome, error)
	close() error
}

// outcome is what one measured run of a workload produced.
type outcome struct {
	attempted, failed int
	opMS              []float64 // per-op latency, in run order
	opsPerCPUSec      float64
	paperErrorPct     float64
	layer             map[string]float64
}

var workloads = []workload{
	{name: "sweep", setups: 5, setup: setupSweep},
	{name: "ssb", setups: 3, setup: setupSSB},
	{name: "serve", setups: 5, setup: setupServe},
}

func main() {
	name := flag.String("workload", "", "workload to run: sweep, ssb or serve")
	seed := flag.Int64("seed", 1, "seed the workload's inputs are generated from")
	seconds := flag.Float64("seconds", 10, "how long the run measures")
	trace := flag.Int("trace", 0, "1 runs the traced mode and reports per-layer metrics")
	out := flag.String("out", ".bench_build", "directory for scratch state and trace files")
	writeGoldens := flag.Bool("write-goldens", false, "regenerate goldens/ in the current directory and exit")
	flag.Parse()

	if *writeGoldens {
		if err := regenerateGoldens("goldens"); err != nil {
			fatal(err)
		}
		return
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == *name {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		fatal(fmt.Errorf("unknown workload %q (have sweep, ssb, serve)", *name))
	}
	if *seconds <= 0 {
		fatal(fmt.Errorf("-seconds must be positive"))
	}
	if err := os.MkdirAll(*out, 0o755); err != nil {
		fatal(err)
	}
	d := time.Duration(*seconds * float64(time.Second))
	var res result
	var err error
	if *trace == 1 {
		res, err = tracedRun(*wl, *seed, d, *out)
	} else {
		res, err = timedRun(*wl, *seed, d, *out)
	}
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

// timedRun sets the workload up wl.setups times (setup_s is the median of
// the CPU-seconds each took, for the reason cpuSeconds gives), measures the
// last instance with tracing off, and reports the end-to-end metrics.
func timedRun(wl workload, seed int64, d time.Duration, outDir string) (result, error) {
	var inst instance
	var setupS []float64
	for i := 0; i < wl.setups; i++ {
		if inst != nil {
			if err := inst.close(); err != nil {
				return result{}, err
			}
		}
		start := cpuSeconds()
		var err error
		inst, err = wl.setup(seed, outDir)
		if err != nil {
			return result{}, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		setupS = append(setupS, cpuSeconds()-start)
	}
	defer inst.close()

	runtime.GC()
	var before runtime.MemStats
	runtime.ReadMemStats(&before)
	o, err := inst.run(d, nil)
	if err != nil {
		return result{}, fmt.Errorf("%s run: %w", wl.name, err)
	}
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	allocKB := float64(after.TotalAlloc-before.TotalAlloc) / 1024 / float64(max(o.attempted, 1))
	p50 := median(o.opMS)
	o.opMS = nil
	heapMB := liveHeapMB()
	runtime.KeepAlive(inst)

	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops, setups %v CPU-s\n", wl.name, seed, o.attempted, setupS)
	return result{
		Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed,
		Metrics: map[string]metric{
			"setup_s":         {median(setupS), "s"},
			"ops_per_s":       {o.opsPerCPUSec, "1/s"},
			"p50_ms":          {p50, "ms"},
			"paper_error_pct": {o.paperErrorPct, "%"},
			"alloc_kb_per_op": {allocKB, "KiB"},
			"live_heap_mb":    {heapMB, "MiB"},
		},
	}, nil
}

// liveHeapMB is the heap still reachable after a forced collection: the
// workload's own state, since the caller keeps its instance alive.
func liveHeapMB() float64 {
	// The second collection empties what sync.Pools kept through the first.
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// tracedRun measures the workload twice for d/2 each, on fresh instances
// built from the same seed: once untraced, once with spans recorded around
// every layer call and a CPU profile running. The per-layer metrics come from
// the traced half; trace_overhead_pct compares the two halves' median op
// latency.
func tracedRun(wl workload, seed int64, d time.Duration, outDir string) (result, error) {
	half := d / 2
	profPath := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-%d.cpu.pprof", wl.name, seed))
	// measure sets a fresh instance up and runs it; with sp set it records
	// spans and profiles the run (not the set-up) into profPath.
	measure := func(sp *spans) (*outcome, error) {
		inst, err := wl.setup(seed, outDir)
		if err != nil {
			return nil, fmt.Errorf("%s setup: %w", wl.name, err)
		}
		defer inst.close()
		if sp == nil {
			return inst.run(half, nil)
		}
		pf, err := os.Create(profPath)
		if err != nil {
			return nil, err
		}
		if err := pprof.StartCPUProfile(pf); err != nil {
			pf.Close()
			return nil, err
		}
		o, err := inst.run(half, sp)
		pprof.StopCPUProfile()
		if cerr := pf.Close(); err == nil {
			err = cerr
		}
		return o, err
	}
	plain, err := measure(nil)
	if err != nil {
		return result{}, err
	}
	sp := newSpans()
	traced, err := measure(sp)
	if err != nil {
		return result{}, err
	}
	shares, err := cpuShares(profPath)
	if err != nil {
		return result{}, fmt.Errorf("read cpu profile: %w", err)
	}
	tracePath := filepath.Join(outDir, fmt.Sprintf("perfbench-%s-%d.trace.json", wl.name, seed))
	if err := sp.writeChrome(tracePath); err != nil {
		return result{}, err
	}
	sp.printSelfTimes(os.Stderr)

	layer := map[string]float64{}
	for _, name := range layerMetricNames {
		layer[name] = 0
	}
	for k, v := range traced.layer {
		if _, ok := layer[k]; !ok {
			return result{}, fmt.Errorf("workload %s reported unlisted layer metric %q", wl.name, k)
		}
		layer[k] = v
	}
	for k, v := range shares {
		layer["cpu_share."+k] = v
	}
	if base := median(plain.opMS); base > 0 {
		layer["trace_overhead_pct"] = (median(traced.opMS)/base - 1) * 100
	}
	layer["op.p99_ms"] = quantile(plain.opMS, 0.99)
	layer["host.calibration"] = experiments.Calibrate()

	metrics := map[string]metric{}
	for _, name := range layerMetricNames {
		metrics[name] = metric{layer[name], layerUnits[name]}
	}
	attempted := plain.attempted + traced.attempted
	failed := plain.failed + traced.failed
	return result{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: metrics}, nil
}

// layerUnits names every per-layer metric and its unit. Every workload
// reports all of them in traced mode; a layer the workload does not run
// reads 0.
var layerUnits = map[string]string{
	// sweep: machine + fluid behind core.Bench.
	"core.measure_us.p50":         "us",
	"core.measure_us.p99":         "us",
	"core.measure_us.faulted.p50": "us",
	"machine.new_us":              "us",
	"machine.runs_per_point":      "count",
	"core.alloc_kb_per_point":     "KiB",
	// ssb: datagen, memo fill, engine construction and runs.
	"ssb.generate_ms":        "ms",
	"ssb.cold_flight_ms":     "ms",
	"ssb.memo_fill_ms":       "ms",
	"ssb.warm_queries_per_s": "1/s",
	"naive.new_ms":           "ms",
	"aware.new_ms":           "ms",
	"naive.run_cold_ms":      "ms",
	"aware.run_cold_ms":      "ms",
	"naive.run_warm_ms":      "ms",
	"aware.run_warm_ms":      "ms",
	"naive.allocs_per_run":   "count",
	"aware.allocs_per_run":   "count",
	"machine.runs_per_query": "count",
	// serve: router, queue, LRU, sstcache, compute, doctor.
	"fleet.route_overhead_us":  "us",
	"server.hit_ms.p50":        "ms",
	"server.disk_ms.p50":       "ms",
	"server.miss_ms.p50":       "ms",
	"server.miss_ms.p99":       "ms",
	"server.hit_ratio":         "ratio",
	"server.disk_ratio":        "ratio",
	"server.miss_ratio":        "ratio",
	"server.coalesced_ratio":   "ratio",
	"server.queue_wait_ms.p99": "ms",
	"server.job_ms":            "ms",
	"server.evictions":         "count",
	"server.rejected":          "count",
	"fleet.failovers":          "count",
	"doctor.ms_per_diagnosis":  "ms",
	"sstcache.flushes":         "count",
	"sstcache.compactions":     "count",
	"sstcache.segments":        "count",
	"load.late_ms.p99":         "ms",
	"serve.max_rps_under_slo":  "1/s",
	"serve.p99_ms.r300":        "ms",
	"serve.p99_ms.r1000":       "ms",
	// every workload, from the traced run's CPU profile.
	"cpu_share.fluid":    "ratio",
	"cpu_share.machine":  "ratio",
	"cpu_share.core":     "ratio",
	"cpu_share.ssb":      "ratio",
	"cpu_share.naive":    "ratio",
	"cpu_share.aware":    "ratio",
	"cpu_share.server":   "ratio",
	"cpu_share.sstcache": "ratio",
	"cpu_share.fleet":    "ratio",
	"cpu_share.doctor":   "ratio",
	"cpu_share.nethttp":  "ratio",
	"cpu_share.gc":       "ratio",
	"trace_overhead_pct": "%",
	"op.p99_ms":          "ms",
	"host.calibration":   "1/ns",
}

var layerMetricNames = func() []string {
	names := make([]string, 0, len(layerUnits))
	for k := range layerUnits {
		names = append(names, k)
	}
	sort.Strings(names)
	return names
}()
