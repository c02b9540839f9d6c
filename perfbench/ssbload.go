package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"runtime/metrics"
	"time"

	"repro/internal/access"
	"repro/internal/aware"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/naive"
	"repro/internal/ssb"
)

// ssbSF is the repository's default scale factor, the one every
// `experiments -id fig14a` process generates.
const ssbSF = 0.1

// warmFlights is how many warm flights follow each cold one.
const warmFlights = 4

// awareLadder is Table 1's optimization ladder for the aware engine. Its
// last step is Figure 14b's configuration.
var awareLadder = []struct {
	name string
	opt  aware.Options
}{
	{"1thr", aware.Options{Threads: 1, Sockets: 1, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}},
	{"18thr", aware.Options{Threads: 18, Sockets: 1, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}},
	{"2socket", aware.Options{Threads: 36, Sockets: 2, Pinning: cpu.PinNUMA, NUMAAware: false, TargetSF: 100}},
	{"numa", aware.Options{Threads: 36, Sockets: 2, Pinning: cpu.PinNUMA, NUMAAware: true, TargetSF: 100}},
	{"pinning", aware.Options{Threads: 36, Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}},
}

const fig14bStep = 4

var devices = []access.DeviceClass{access.PMEM, access.DRAM}

// queryEngine is what a flight needs from either engine.
type queryEngine interface {
	run(q ssb.Query) (ssb.Result, float64, error)
}

type naiveEngine struct{ *naive.Engine }

func (e naiveEngine) run(q ssb.Query) (ssb.Result, float64, error) {
	r, err := e.Run(q)
	return r.Result, r.Seconds, err
}

type awareEngine struct{ *aware.Engine }

func (e awareEngine) run(q ssb.Query) (ssb.Result, float64, error) {
	r, err := e.Run(q)
	return r.Result, r.Seconds, err
}

// engineRun is one engine of a flight: its golden key, how to build it,
// and which layer ("naive" or "aware") it belongs to.
type engineRun struct {
	key   string
	layer string
	build func(m *machine.Machine, d *ssb.Data) (queryEngine, error)
}

// flightEngines are Figure 14a's and 14b's four engines, with the aware
// engine at the given ladder step.
func flightEngines(step int) []engineRun {
	var out []engineRun
	for _, dev := range devices {
		dev := dev
		out = append(out, engineRun{key: "naive/" + dev.String(), layer: "naive",
			build: func(m *machine.Machine, d *ssb.Data) (queryEngine, error) {
				e, err := naive.New(m, d, naive.Options{Device: dev, TargetSF: 50})
				return naiveEngine{e}, err
			}})
	}
	for _, dev := range devices {
		opt := awareLadder[step].opt
		opt.Device = dev
		out = append(out, engineRun{key: "aware/" + awareLadder[step].name + "/" + dev.String(), layer: "aware",
			build: func(m *machine.Machine, d *ssb.Data) (queryEngine, error) {
				e, err := aware.New(m, d, opt)
				return awareEngine{e}, err
			}})
	}
	return out
}

// flightStats collects one flight's timings and checks.
type flightStats struct {
	total       time.Duration
	newMS       map[string][]float64 // per layer
	runMS       map[string][]float64 // per layer
	allMS       []float64            // every Run, in run order
	allocs      map[string][]float64 // objects allocated per Run, traced runs only
	machineRuns []float64            // machine runs per query, traced runs only
	queries     int
	failed      int
	seconds     map[string][]float64 // simulated seconds per engine key, in query order
}

func newFlightStats() *flightStats {
	return &flightStats{newMS: map[string][]float64{}, runMS: map[string][]float64{},
		allocs: map[string][]float64{}, seconds: map[string][]float64{}}
}

// runFlight runs the 13-query flight on each engine, every engine on a
// fresh machine, and checks each result and simulated time against the
// goldens (nil skips the checks). op numbers the flight's spans.
func runFlight(d *ssb.Data, engines []engineRun, g *ssbGoldens, sp *spans, parent int, op int64) *flightStats {
	fs := newFlightStats()
	qs := ssb.Queries()
	allocSample := []metrics.Sample{{Name: "/gc/heap/allocs:objects"}}
	start := time.Now()
	for _, er := range engines {
		m, err := machine.New(machine.DefaultConfig())
		if err != nil {
			fs.failed += len(qs)
			fs.queries += len(qs)
			continue
		}
		t0 := time.Now()
		e, err := er.build(m, d)
		t1 := time.Now()
		sp.add(er.layer+".New", t0, t1, parent, op)
		fs.newMS[er.layer] = append(fs.newMS[er.layer], float64(t1.Sub(t0))/1e6)
		if err != nil {
			fmt.Fprintf(os.Stderr, "%s: build: %v\n", er.key, err)
			fs.failed += len(qs)
			fs.queries += len(qs)
			continue
		}
		for _, q := range qs {
			var runsBefore float64
			if sp != nil {
				metrics.Read(allocSample)
				runsBefore = m.Metrics().Counter("machine.run.count").Value()
			}
			allocsBefore := allocSample[0].Value
			q0 := time.Now()
			res, secs, err := e.run(q)
			q1 := time.Now()
			sp.add(er.layer+".Run", q0, q1, parent, op)
			if sp != nil {
				metrics.Read(allocSample)
				fs.allocs[er.layer] = append(fs.allocs[er.layer],
					float64(allocSample[0].Value.Uint64()-allocsBefore.Uint64()))
				fs.machineRuns = append(fs.machineRuns, m.Metrics().Counter("machine.run.count").Value()-runsBefore)
			}
			fs.queries++
			fs.runMS[er.layer] = append(fs.runMS[er.layer], float64(q1.Sub(q0))/1e6)
			fs.allMS = append(fs.allMS, float64(q1.Sub(q0))/1e6)
			fs.seconds[er.key] = append(fs.seconds[er.key], secs)
			if err != nil {
				fmt.Fprintf(os.Stderr, "%s %s: %v\n", er.key, q.ID, err)
				fs.failed++
				continue
			}
			if g == nil {
				continue
			}
			if msg := g.check(er.key, q.ID, res, secs); msg != "" {
				fmt.Fprintln(os.Stderr, msg)
				fs.failed++
			}
		}
	}
	fs.total = time.Since(start)
	return fs
}

// paperError is the mean relative error of Figure 14a's and 14b's average
// PMEM/DRAM query-time ratios against the paper's 5.3x and 1.66x.
func paperError(fs *flightStats) float64 {
	avgRatio := func(pm, dr []float64) float64 {
		sum := 0.0
		for i := range pm {
			sum += pm[i] / dr[i]
		}
		return sum / float64(len(pm))
	}
	a := avgRatio(fs.seconds["naive/pmem"], fs.seconds["naive/dram"])
	step := awareLadder[fig14bStep].name
	b := avgRatio(fs.seconds["aware/"+step+"/pmem"], fs.seconds["aware/"+step+"/dram"])
	return (math.Abs(a-5.3)/5.3 + math.Abs(b-1.66)/1.66) / 2 * 100
}

type ssbInstance struct {
	seed    int64
	goldens *ssbGoldens
	data    *ssb.Data // the last generated data set, kept live for live_heap_mb
}

// setupSSB loads the goldens and runs one untimed iteration, so the timed
// loop starts with the heap grown to its working size.
func setupSSB(seed int64, _ string) (instance, error) {
	g, err := loadSSBGoldens()
	if err != nil {
		return nil, err
	}
	s := &ssbInstance{seed: seed, goldens: g}
	if s.data, err = ssb.Generate(ssbSF); err != nil {
		return nil, err
	}
	if fs := runFlight(s.data, flightEngines(fig14bStep), g, nil, -1, 0); fs.failed > 0 {
		return nil, fmt.Errorf("warm-up flight: %d of %d queries failed", fs.failed, fs.queries)
	}
	return s, nil
}

func (s *ssbInstance) close() error { return nil }

// run repeats iterations until d has passed. An iteration regenerates the
// data, runs the cold flight (Figure 14a's and 14b's engines, paying the
// data memo fill), loads the aware engine's one-socket layout, then runs
// warmFlights warm flights on fresh machines with the aware engine at a
// seeded step of Table 1's ladder. Each query run is one op; ops_per_s
// counts the warm ones.
func (s *ssbInstance) run(d time.Duration, sp *spans) (*outcome, error) {
	o := &outcome{layer: map[string]float64{}}
	rng := rand.New(rand.NewSource(s.seed))
	var genMS, coldMS, warmMS []float64
	cold, warm := newFlightStats(), newFlightStats()
	var warmCPU float64
	deadline := time.Now().Add(d)
	for it := int64(0); it == 0 || time.Now().Before(deadline); it++ {
		root := sp.begin("iteration", -1, it)
		s.data = nil
		t0 := time.Now()
		data, err := ssb.Generate(ssbSF)
		t1 := time.Now()
		sp.add("ssb.Generate", t0, t1, root, it)
		if err != nil {
			return nil, err
		}
		s.data = data
		genMS = append(genMS, float64(t1.Sub(t0))/1e6)

		fs := runFlight(data, flightEngines(fig14bStep), s.goldens, sp, root, it)
		o.opMS = append(o.opMS, fs.allMS...)
		coldMS = append(coldMS, ms(fs.total))
		merge(cold, fs)
		o.paperErrorPct = paperError(fs)

		// The one-socket ladder steps stripe the fact table differently;
		// load that layout once so the warm flights below stay warm.
		m, err := machine.New(machine.DefaultConfig())
		if err != nil {
			return nil, err
		}
		opt := awareLadder[0].opt
		p0 := time.Now()
		_, err = aware.New(m, data, opt)
		sp.add("aware.New", p0, time.Now(), root, it)
		if err != nil {
			return nil, err
		}

		for w := 0; w < warmFlights; w++ {
			c0 := cpuSeconds()
			fs := runFlight(data, flightEngines(rng.Intn(len(awareLadder))), s.goldens, sp, root, it)
			warmCPU += cpuSeconds() - c0
			warmMS = append(warmMS, ms(fs.total))
			merge(warm, fs)
			o.opMS = append(o.opMS, fs.allMS...)
		}
		sp.end(root)
	}
	o.attempted = cold.queries + warm.queries
	o.failed = cold.failed + warm.failed
	o.opsPerCPUSec = float64(warm.queries) / warmCPU
	if sp != nil {
		l := o.layer
		l["ssb.generate_ms"] = median(genMS)
		l["ssb.cold_flight_ms"] = median(coldMS)
		l["ssb.memo_fill_ms"] = median(coldMS) - median(warmMS)
		l["ssb.warm_queries_per_s"] = float64(warm.queries) / float64(len(warmMS)) / (median(warmMS) / 1000)
		l["naive.new_ms"] = median(cold.newMS["naive"])
		l["aware.new_ms"] = median(cold.newMS["aware"])
		l["naive.run_cold_ms"] = mean(cold.runMS["naive"])
		l["aware.run_cold_ms"] = mean(cold.runMS["aware"])
		l["naive.run_warm_ms"] = mean(warm.runMS["naive"])
		l["aware.run_warm_ms"] = mean(warm.runMS["aware"])
		l["naive.allocs_per_run"] = mean(warm.allocs["naive"])
		l["aware.allocs_per_run"] = mean(warm.allocs["aware"])
		l["machine.runs_per_query"] = mean(warm.machineRuns)
	}
	return o, nil
}

// merge adds one flight's samples and counts into an accumulator.
func merge(acc, fs *flightStats) {
	for k, v := range fs.newMS {
		acc.newMS[k] = append(acc.newMS[k], v...)
	}
	for k, v := range fs.runMS {
		acc.runMS[k] = append(acc.runMS[k], v...)
	}
	for k, v := range fs.allocs {
		acc.allocs[k] = append(acc.allocs[k], v...)
	}
	acc.machineRuns = append(acc.machineRuns, fs.machineRuns...)
	acc.queries += fs.queries
	acc.failed += fs.failed
}
