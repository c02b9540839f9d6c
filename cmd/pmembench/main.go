// Command pmembench measures the bandwidth of one workload point — or a
// sweep — on the simulated machine, mirroring the paper's microbenchmark
// binary.
//
// Examples:
//
//	pmembench -dir read -pattern individual -size 4096 -threads 18
//	pmembench -dir write -pattern grouped -size 64 -threads 36
//	pmembench -dir read -size 4096 -far             # cold far access
//	pmembench -dir read -size 4096 -far -warm       # after warm-up
//	pmembench -dir read -sweep threads
//	pmembench -device dram -dir read -pattern random -size 512 -threads 36
//	pmembench -advise -dir write                    # print best practices
//	pmembench -trace workload.trace                 # replay a trace file
//	pmembench -arrivals traffic.json                # serve a query stream
//	pmembench -sweep threads -trace-dir traces      # + Perfetto timeline
//	pmembench -sweep threads -sweep-j 4             # parallel sweep points
//	pmembench -bench-json BENCH_sim.json            # tier-0 benchmark report
//
// -sweep-j N evaluates sweep points concurrently, each on its own fresh
// machine, so the output is byte-identical at any width; 0 (the default)
// keeps the classic serial sweep on one shared machine. -bench-json runs
// the tier-0 experiment catalogue as a benchmark and writes a BENCH_sim
// report; with -bench-baseline it exits non-zero when wall-clock regresses
// past -bench-tolerance. -cpuprofile/-memprofile write pprof profiles.
//
// -arrivals switches to serve mode: instead of one workload point, the
// machine serves a deterministic query stream described by an arrival spec
// (inline JSON or a file; see internal/queueing) and the report covers
// per-SLO-class latency percentiles, conservation counts, and fairness.
// Serve mode composes with -faults, -metrics, and -trace-dir.
//
// -trace-dir writes the machine's simulated-time timeline (every run laid
// end to end) to <dir>/pmembench.trace.json in Chrome trace-event format.
// Ctrl-C / SIGTERM stops a sweep cleanly between points; the timeline for
// the completed points is still written.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"

	"repro/internal/access"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/doctor"
	"repro/internal/experiments"
	"repro/internal/faults"
	"repro/internal/machine"
	"repro/internal/metrics"
	"repro/internal/queueing"
	"repro/internal/simtrace"
	"repro/internal/trace"
)

func main() { os.Exit(run()) }

// run is the whole command; it returns the exit status so that every
// deferred writer (CPU and heap profiles, the trace file) has run before
// main exits, including when the bench gate fails.
func run() int {
	device := flag.String("device", "pmem", "pmem or dram")
	dir := flag.String("dir", "read", "read or write")
	pattern := flag.String("pattern", "individual", "grouped, individual, or random")
	size := flag.Int64("size", 4096, "access size in bytes")
	threads := flag.Int("threads", 18, "thread count")
	pin := flag.String("pin", "cores", "cores, numa, or none")
	far := flag.Bool("far", false, "access the remote socket's memory")
	warm := flag.Bool("warm", false, "pre-establish cross-socket mappings")
	prefetcher := flag.Bool("prefetcher", true, "L2 hardware prefetcher enabled")
	sweep := flag.String("sweep", "", "sweep an axis: 'threads' or 'size'")
	sweepJ := flag.Int("sweep-j", 0, "evaluate sweep points concurrently, each on a fresh machine; 0 = classic serial sweep sharing one machine (output is identical for any value >= 1)")
	verbose := flag.Bool("verbose", false, "print peak resource utilizations (the bottleneck report)")
	showMetrics := flag.Bool("metrics", false, "print the machine's metrics snapshot (simulated hardware counters) after the run")
	metricsJSON := flag.String("metrics-json", "", "write the metrics snapshot as JSON to this file ('-' = stdout)")
	advise := flag.Bool("advise", false, "print the best-practice advice for the workload instead of measuring")
	traceFile := flag.String("trace", "", "replay a workload trace file (see internal/trace for the format)")
	traceDir := flag.String("trace-dir", "", "write the simulated-time timeline to <dir>/pmembench.trace.json (Chrome trace-event JSON, loadable in Perfetto)")
	configFile := flag.String("config", "", "machine config JSON (partial overrides of the calibrated defaults; see machine.ConfigFromJSON)")
	faultsFlag := flag.String("faults", "", "deterministic fault plan: inline JSON or a path to a plan file (see internal/faults)")
	arrivalsFlag := flag.String("arrivals", "", "serve mode: run the query-stream serving co-simulation under this arrival spec, inline JSON or a path to a spec file (see internal/queueing)")
	benchJSON := flag.String("bench-json", "", "run the tier-0 experiment catalogue as a benchmark and write BENCH_sim.json to this file ('-' = stdout)")
	benchBaseline := flag.String("bench-baseline", "", "compare the -bench-json run against this committed BENCH_sim.json and exit non-zero on regression")
	benchTolerance := flag.Float64("bench-tolerance", 0.20, "allowed wall-clock regression vs the calibration-scaled baseline (0.20 = +20%)")
	benchDiagnose := flag.Bool("diagnose", false, "with -bench-json and -bench-baseline: print the doctor's regression triage (ranked mechanisms with counter evidence) to stderr")
	cpuprofile := flag.String("cpuprofile", "", "write a CPU profile to this file")
	memprofile := flag.String("memprofile", "", "write a heap profile to this file on exit")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer func() {
			pprof.StopCPUProfile()
			f.Close()
		}()
	}
	defer writeMemProfile(*memprofile)

	if *benchJSON != "" {
		return runBenchMode(ctx, *benchJSON, *benchBaseline, *benchTolerance, *benchDiagnose)
	}

	d, err := parseDir(*dir)
	if err != nil {
		fatal(err)
	}
	p, err := parsePattern(*pattern)
	if err != nil {
		fatal(err)
	}
	dev, err := parseDevice(*device)
	if err != nil {
		fatal(err)
	}
	pol, err := parsePin(*pin)
	if err != nil {
		fatal(err)
	}

	if *advise {
		a := core.Advise(core.WorkloadDesc{Dir: d, Pattern: p, FullControl: pol == cpu.PinCores})
		fmt.Println(a)
		return 0
	}

	cfg := machine.DefaultConfig()
	if *configFile != "" {
		f, err := os.Open(*configFile)
		if err != nil {
			fatal(err)
		}
		cfg, err = machine.ConfigFromJSON(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	if *faultsFlag != "" {
		src := []byte(*faultsFlag)
		if !strings.HasPrefix(strings.TrimSpace(*faultsFlag), "{") {
			src, err = os.ReadFile(*faultsFlag)
			if err != nil {
				fatal(err)
			}
		}
		plan, err := faults.Parse(src)
		if err != nil {
			fatal(fmt.Errorf("-faults: %w", err))
		}
		cfg.Faults = plan
	}
	// The -prefetcher flag only overrides the config when explicitly set,
	// so a config file's PrefetcherEnabled survives the flag default.
	flag.Visit(func(fl *flag.Flag) {
		if fl.Name == "prefetcher" {
			cfg.PrefetcherEnabled = *prefetcher
		}
	})

	if *traceDir != "" {
		cfg.Trace = simtrace.New()
		defer func() {
			if err := experiments.WriteTraceFile(*traceDir, "pmembench", cfg.Trace); err != nil {
				fatal(err)
			}
		}()
	}

	if *arrivalsFlag != "" {
		src := []byte(*arrivalsFlag)
		if !strings.HasPrefix(strings.TrimSpace(*arrivalsFlag), "{") {
			src, err = os.ReadFile(*arrivalsFlag)
			if err != nil {
				fatal(err)
			}
		}
		spec, err := queueing.ParseSpec(src)
		if err != nil {
			fatal(fmt.Errorf("-arrivals: %w", err))
		}
		m, err := machine.New(cfg)
		if err != nil {
			fatal(err)
		}
		res, err := queueing.Serve(m, spec)
		if err != nil {
			fatal(err)
		}
		res.Fprint(os.Stdout)
		emitMetrics(m.Metrics(), *showMetrics, *metricsJSON)
		return 0
	}

	if *traceFile != "" {
		f, err := os.Open(*traceFile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		lines, err := trace.Parse(f)
		if err != nil {
			fatal(err)
		}
		m, err := machine.New(cfg)
		if err != nil {
			fatal(err)
		}
		res, err := trace.Replay(m, lines)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("elapsed: %.3f s  total: %.2f GB/s  read: %.2f GB/s  write: %.2f GB/s\n",
			res.Elapsed, res.Bandwidth/1e9, res.ReadBandwidth/1e9, res.WriteBandwidth/1e9)
		for _, s := range res.Streams {
			fmt.Printf("  %-12s %8.2f GB/s over %6.2f s\n", s.Label, s.Bandwidth/1e9, s.Seconds)
		}
		emitMetrics(m.Metrics(), *showMetrics, *metricsJSON)
		return 0
	}

	b, err := core.NewBench(cfg)
	if err != nil {
		fatal(err)
	}
	point := core.Point{
		Class: dev, Dir: d, Pattern: p, AccessSize: *size, Threads: *threads,
		Policy: pol, Far: *far, Warm: *warm,
	}

	switch *sweep {
	case "":
		res, err := b.MeasureDetailedContext(ctx, point)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%.2f GB/s\n", res.Bandwidth/1e9)
		if *verbose {
			fmt.Println("peak resource utilization:")
			for _, n := range peakOrder(res.PeakUtilization) {
				if u := res.PeakUtilization[n]; u > 0.01 {
					fmt.Printf("  %-24s %5.1f%%\n", n, u*100)
				}
			}
		}
	case "threads":
		axis := []int{1, 2, 4, 6, 8, 12, 16, 18, 24, 32, 36}
		if *sweepJ > 0 {
			requireIsolatedSweep(*showMetrics, *metricsJSON, *traceDir, *faultsFlag)
			points := make([]core.Point, len(axis))
			for i, t := range axis {
				points[i] = point
				points[i].Threads = t
			}
			gbs, err := core.MeasurePoints(ctx, cfg, *sweepJ, points)
			degraded := checkSweepErr(err)
			if !degraded {
				for i, t := range axis {
					fmt.Printf("%3d threads: %6.2f GB/s\n", t, gbs[i])
				}
			}
			markDegraded(degraded)
			return 0
		}
		res, err := b.SweepThreads(ctx, point, axis)
		degraded := checkSweepErr(err)
		for i, t := range res.Axis {
			fmt.Printf("%3d threads: %6.2f GB/s\n", t, res.GBs[i])
		}
		markDegraded(degraded)
	case "size":
		axis := []int64{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384, 32768, 65536}
		if *sweepJ > 0 {
			requireIsolatedSweep(*showMetrics, *metricsJSON, *traceDir, *faultsFlag)
			points := make([]core.Point, len(axis))
			for i, s := range axis {
				points[i] = point
				points[i].AccessSize = s
			}
			gbs, err := core.MeasurePoints(ctx, cfg, *sweepJ, points)
			degraded := checkSweepErr(err)
			if !degraded {
				for i, s := range axis {
					fmt.Printf("%6d B: %6.2f GB/s\n", s, gbs[i])
				}
			}
			markDegraded(degraded)
			return 0
		}
		res, err := b.SweepAccessSize(ctx, point, axis)
		degraded := checkSweepErr(err)
		for i, s := range res.Axis {
			fmt.Printf("%6d B: %6.2f GB/s\n", s, res.GBs[i])
		}
		markDegraded(degraded)
	default:
		fatal(fmt.Errorf("unknown sweep axis %q (threads or size)", *sweep))
	}
	emitMetrics(b.M.Metrics(), *showMetrics, *metricsJSON)
	return 0
}

// peakOrder lists a peak-utilization report's resources, highest
// utilization first and ties by name, so identical runs print identically.
func peakOrder(peaks map[string]float64) []string {
	names := make([]string, 0, len(peaks))
	for n := range peaks {
		names = append(names, n)
	}
	sort.Slice(names, func(i, j int) bool {
		if ui, uj := peaks[names[i]], peaks[names[j]]; ui != uj {
			return ui > uj
		}
		return names[i] < names[j]
	})
	return names
}

// requireIsolatedSweep rejects flag combinations that need every sweep
// point on one shared machine: -sweep-j gives each point a fresh machine,
// which would silently change what -metrics/-trace-dir record and when a
// -faults plan (scheduled on the machine's lifetime clock) fires.
func requireIsolatedSweep(showMetrics bool, metricsJSON, traceDir, faultsFlag string) {
	if showMetrics || metricsJSON != "" || traceDir != "" || faultsFlag != "" {
		fatal(errors.New("-sweep-j runs points on independent machines; drop it to combine a sweep with -metrics, -metrics-json, -trace-dir, or -faults"))
	}
}

// runBenchMode runs the tier-0 catalogue (quick axes, sf 0.05 — the same
// configuration the committed BENCH_sim.json baseline was recorded with),
// writes the report, and optionally gates against a baseline. With -diagnose
// the doctor triages the comparison — attributing any regression to the
// counter family that shifted — on stderr, whichever way the gate goes.
func runBenchMode(ctx context.Context, outPath, baselinePath string, tolerance float64, diagnose bool) int {
	// Read the baseline before writing the report: ratcheting writes the new
	// report over the committed baseline file in place (-bench-json
	// BENCH_sim.json -bench-baseline BENCH_sim.json), so the old bytes must
	// be in hand first. Having the baseline also lets the report record each
	// entry's counter deltas against it.
	var base experiments.BenchReport
	if baselinePath != "" {
		var err error
		base, err = experiments.ReadBenchReport(baselinePath)
		if err != nil {
			fatal(err)
		}
	}
	rep, err := experiments.RunBench(ctx, experiments.Config{SF: 0.05, Quick: true})
	if err != nil {
		fatal(err)
	}
	if baselinePath != "" {
		rep.AnnotateDeltas(base)
	}
	w := os.Stdout
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		w = f
	}
	if err := rep.WriteJSON(w); err != nil {
		fatal(err)
	}
	if baselinePath == "" {
		return 0
	}
	if diagnose {
		diagnoseBenchDiff(base, rep, tolerance)
	}
	if findings := experiments.CompareBench(base, rep, tolerance); len(findings) > 0 {
		for _, f := range findings {
			fmt.Fprintln(os.Stderr, "pmembench: bench regression:", f)
		}
		return 1
	}
	fmt.Fprintln(os.Stderr, "pmembench: bench within tolerance of baseline")
	return 0
}

// diagnoseBenchDiff runs the doctor's bench-diff triage and prints it to
// stderr. The experiments reports round-trip through JSON into the doctor's
// own report shape (kept separate to avoid an import cycle), so the triage
// sees exactly the bytes a standalone pmemdoctor invocation would.
func diagnoseBenchDiff(base, cur experiments.BenchReport, tolerance float64) {
	conv := func(r experiments.BenchReport) *doctor.BenchReport {
		raw, err := json.Marshal(r)
		if err != nil {
			fatal(err)
		}
		d, err := doctor.ParseBenchReport(raw)
		if err != nil {
			fatal(err)
		}
		return d
	}
	d := doctor.DiagnoseBenchDiff(conv(base), conv(cur), tolerance)
	d.Fprint(os.Stderr)
}

// writeMemProfile dumps the heap profile after a GC, mirroring
// `go test -memprofile`.
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	defer f.Close()
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
}

// emitMetrics prints the machine registry's snapshot as text and/or JSON.
func emitMetrics(reg *metrics.Registry, text bool, jsonPath string) {
	if !text && jsonPath == "" {
		return
	}
	snap := reg.Snapshot()
	if text {
		fmt.Println("metrics:")
		snap.Fprint(os.Stdout)
	}
	if jsonPath != "" {
		w := os.Stdout
		if jsonPath != "-" {
			f, err := os.Create(jsonPath)
			if err != nil {
				fatal(err)
			}
			defer f.Close()
			w = f
		}
		if err := snap.WriteJSON(w); err != nil {
			fatal(err)
		}
	}
}

func parseDir(s string) (access.Direction, error) {
	switch s {
	case "read":
		return access.Read, nil
	case "write":
		return access.Write, nil
	}
	return 0, fmt.Errorf("unknown direction %q", s)
}

func parsePattern(s string) (access.Pattern, error) {
	switch s {
	case "grouped":
		return access.SeqGrouped, nil
	case "individual":
		return access.SeqIndividual, nil
	case "random":
		return access.Random, nil
	}
	return 0, fmt.Errorf("unknown pattern %q", s)
}

func parseDevice(s string) (access.DeviceClass, error) {
	switch s {
	case "pmem":
		return access.PMEM, nil
	case "dram":
		return access.DRAM, nil
	}
	return 0, fmt.Errorf("unknown device %q", s)
}

func parsePin(s string) (cpu.PinPolicy, error) {
	switch s {
	case "cores":
		return cpu.PinCores, nil
	case "numa":
		return cpu.PinNUMA, nil
	case "none":
		return cpu.PinNone, nil
	}
	return 0, fmt.Errorf("unknown pin policy %q", s)
}

// checkSweepErr lets an interrupted sweep fall through with its partial
// results (so a -trace-dir timeline still gets written via the deferred
// writer) and fatals on everything else. It reports whether the sweep was
// cut short, so the output can carry the degraded marker.
func checkSweepErr(err error) bool {
	if err == nil {
		return false
	}
	if errors.Is(err, context.Canceled) {
		fmt.Fprintln(os.Stderr, "pmembench: interrupted, reporting completed points")
		return true
	}
	fatal(err)
	return false
}

// markDegraded stamps partial sweep output so downstream parsers never
// mistake a truncated axis for a completed one.
func markDegraded(degraded bool) {
	if degraded {
		fmt.Println("degraded: true")
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pmembench:", err)
	os.Exit(1)
}
