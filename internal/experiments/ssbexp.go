package experiments

import (
	"fmt"
	"sync"

	"repro/internal/access"
	"repro/internal/aware"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/naive"
	"repro/internal/ssb"
)

func init() {
	register("fig14a", "SSB on Hyrise-like engine, sf 50, PMEM vs DRAM", fig14a)
	register("fig14b", "SSB handcrafted PMEM-aware engine, sf 100, PMEM vs DRAM", fig14b)
	register("tab01", "Table 1: optimization breakdown of Q2.1", table1)
	register("ssd01", "Q2.1 on NVMe SSD (traditional OLAP baseline)", ssd1)
}

// dataCache shares the generated data set between the SSB experiments within
// one process. The SSB experiments may run on different worker goroutines,
// so access is serialized; generation happens under the lock so concurrent
// first users don't duplicate the (expensive) generation work. The cached
// *ssb.Data is treated as immutable by every engine.
var (
	dataCacheMu sync.Mutex
	dataCache   = map[float64]*ssb.Data{}
)

func dataAt(sf float64) *ssb.Data {
	dataCacheMu.Lock()
	defer dataCacheMu.Unlock()
	if d, ok := dataCache[sf]; ok {
		return d
	}
	d := ssb.MustGenerate(sf)
	dataCache[sf] = d
	return d
}

func fig14a(cfg Config) ([]Table, error) {
	t := Table{ID: "fig14a", Title: "Hyrise-like engine, sf 50", Unit: "s",
		Header: "query", Cols: []string{"PMEM", "DRAM", "ratio"},
		Paper: "PMEM on average 5.3x slower than DRAM (min 2.5x Q3.1, max 7.7x Q2.3)"}
	return pmemVsDRAM(cfg, t, func(m *machine.Machine, d *ssb.Data, dev access.DeviceClass) (engine.Runner, error) {
		e, err := naive.New(m, d, naive.Options{Device: dev, TargetSF: 50})
		if err != nil {
			return nil, err
		}
		return engine.RunnerOf(e.Run), nil
	})
}

func fig14b(cfg Config) ([]Table, error) {
	t := Table{ID: "fig14b", Title: "Handcrafted PMEM-aware engine, sf 100", Unit: "s",
		Header: "query", Cols: []string{"PMEM", "DRAM", "ratio"},
		Paper: "PMEM 1.66x slower on average; QF1 ~1.3 s vs ~0.5 s; best 1.4x (Q3.3), worst 3x (Q1.3)"}
	return pmemVsDRAM(cfg, t, func(m *machine.Machine, d *ssb.Data, dev access.DeviceClass) (engine.Runner, error) {
		e, err := aware.New(m, d, aware.Options{Device: dev, Threads: 36, Sockets: 2,
			Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100})
		if err != nil {
			return nil, err
		}
		return engine.RunnerOf(e.Run), nil
	})
}

// pmemVsDRAM builds one engine on PMEM and one on DRAM, each on its own
// machine, and adds a PMEM, DRAM, and ratio row per SSB query to t, then
// the average ratio.
func pmemVsDRAM(cfg Config, t Table, build func(*machine.Machine, *ssb.Data, access.DeviceClass) (engine.Runner, error)) ([]Table, error) {
	data := dataAt(cfg.SF)
	pm, err := build(machine.MustNew(cfg.MachineConfig()), data, access.PMEM)
	if err != nil {
		return nil, err
	}
	dr, err := build(machine.MustNew(cfg.MachineConfig()), data, access.DRAM)
	if err != nil {
		return nil, err
	}
	var sumRatio float64
	qs := ssb.Queries()
	for _, q := range qs {
		if err := cfg.Err(); err != nil {
			return nil, err
		}
		_, a, err := pm(q)
		if err != nil {
			return nil, err
		}
		_, b, err := dr(q)
		if err != nil {
			return nil, err
		}
		ratio := a / b
		sumRatio += ratio
		t.Series = append(t.Series, Series{Label: q.ID, Values: []float64{a, b, ratio}})
	}
	t.Series = append(t.Series, Series{Label: "AVG ratio", Values: []float64{0, 0, sumRatio / float64(len(qs))}})
	return []Table{t}, nil
}

func table1(cfg Config) ([]Table, error) {
	data := dataAt(cfg.SF)
	q, err := ssb.QueryByID("Q2.1")
	if err != nil {
		return nil, err
	}
	t := Table{ID: "tab1", Title: "Optimization of Q2.1 (sf 100)", Unit: "s",
		Header: "step", Cols: []string{"PMEM", "DRAM"},
		Paper: "PMEM 306.7 / 25.1 / 12.3 / 9.4 / 8.6; DRAM 221.2 / 15.2 / 9.2 / 5.2 / 5.2"}

	steps := []struct {
		label string
		opt   aware.Options
	}{
		{"1 Thr.", aware.Options{Threads: 1, Sockets: 1, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}},
		{"18 Thr.", aware.Options{Threads: 18, Sockets: 1, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}},
		{"2-Socket", aware.Options{Threads: 36, Sockets: 2, Pinning: cpu.PinNUMA, NUMAAware: false, TargetSF: 100}},
		{"NUMA", aware.Options{Threads: 36, Sockets: 2, Pinning: cpu.PinNUMA, NUMAAware: true, TargetSF: 100}},
		{"Pinning", aware.Options{Threads: 36, Sockets: 2, Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100}},
	}
	for _, st := range steps {
		if err := cfg.Err(); err != nil {
			return nil, err
		}
		var vals []float64
		for _, dev := range []access.DeviceClass{access.PMEM, access.DRAM} {
			opt := st.opt
			opt.Device = dev
			m := machine.MustNew(cfg.MachineConfig())
			e, err := aware.New(m, data, opt)
			if err != nil {
				return nil, err
			}
			run, err := e.Run(q)
			if err != nil {
				return nil, err
			}
			vals = append(vals, run.Seconds)
		}
		t.Series = append(t.Series, Series{Label: st.label, Values: vals})
	}
	return []Table{t}, nil
}

func ssd1(cfg Config) ([]Table, error) {
	data := dataAt(cfg.SF)
	q, err := ssb.QueryByID("Q2.1")
	if err != nil {
		return nil, err
	}
	t := Table{ID: "ssd1", Title: "Q2.1 traditional setup: fact table on NVMe SSD, indexes in DRAM", Unit: "s",
		Header: "setup", Cols: []string{"seconds"},
		Paper: "22.8 s, table-scan bound; PMEM outperforms the SSD by over 2.6x"}

	m := machine.MustNew(cfg.MachineConfig())
	e, err := aware.New(m, data, aware.Options{Threads: 36, Sockets: 2,
		Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100, SSDScan: true})
	if err != nil {
		return nil, err
	}
	run, err := e.Run(q)
	if err != nil {
		return nil, err
	}
	mp := machine.MustNew(cfg.MachineConfig())
	ep, err := aware.New(mp, data, aware.Options{Threads: 36, Sockets: 2,
		Pinning: cpu.PinCores, NUMAAware: true, TargetSF: 100})
	if err != nil {
		return nil, err
	}
	runP, err := ep.Run(q)
	if err != nil {
		return nil, err
	}
	t.Series = []Series{
		{Label: "SSD scan + DRAM index", Values: []float64{run.Seconds}},
		{Label: "PMEM (for reference)", Values: []float64{runP.Seconds}},
		{Label: fmt.Sprintf("SSD/PMEM ratio"), Values: []float64{run.Seconds / runP.Seconds}},
	}
	return []Table{t}, nil
}
