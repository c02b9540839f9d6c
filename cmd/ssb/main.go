// Command ssb runs the Star Schema Benchmark on the simulated machine with
// either engine, reproducing Figure 14 and Table 1 style runs from the CLI.
//
// Examples:
//
//	ssb -engine aware -device pmem -sf 0.1 -target 100
//	ssb -engine naive -device dram -sf 0.1 -target 50 -query Q2.1
//	ssb -engine aware -device pmem -threads 18 -sockets 1 -target 100
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"text/tabwriter"

	"repro/internal/access"
	"repro/internal/aware"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/naive"
	"repro/internal/ssb"
)

func main() {
	engineName := flag.String("engine", "aware", "aware (handcrafted, Section 6.2) or naive (Hyrise-like, Section 6.1)")
	device := flag.String("device", "pmem", "pmem or dram")
	sf := flag.Float64("sf", 0.1, "scale factor to generate and execute")
	target := flag.Float64("target", 0, "scale the reported timings to this sf (0 = same as -sf)")
	threads := flag.Int("threads", 0, "thread count (0 = engine default)")
	sockets := flag.Int("sockets", 0, "sockets for the aware engine (0 = default 2)")
	pin := flag.String("pin", "cores", "cores, numa, or none (aware engine)")
	numa := flag.Bool("numa-aware", true, "NUMA-aware placement (aware engine)")
	query := flag.String("query", "", "run a single query (e.g. Q2.1); empty = all 13")
	showResult := flag.Bool("rows", false, "print the query result rows")
	dump := flag.String("dump", "", "write dbgen-format .tbl files to this directory and exit")
	showSQL := flag.Bool("sql", false, "print each query's SQL before running it")
	explain := flag.Bool("explain", false, "print the engine's execution plan instead of running")
	flag.Parse()

	dev, err := parseDevice(*device)
	if err != nil {
		fatal(err)
	}
	pol, err := parsePin(*pin)
	if err != nil {
		fatal(err)
	}

	fmt.Fprintf(os.Stderr, "generating SSB data at sf %g...\n", *sf)
	data, err := ssb.Generate(*sf)
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "%s\n", data)

	if *dump != "" {
		for _, table := range ssb.TableNames() {
			path := filepath.Join(*dump, table+".tbl")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := ssb.WriteTable(f, data, table); err != nil {
				f.Close()
				fatal(err)
			}
			if err := f.Close(); err != nil {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "wrote %s\n", path)
		}
		return
	}

	m, err := machine.New(machine.DefaultConfig())
	if err != nil {
		fatal(err)
	}

	var run engine.Runner
	var plan func(q ssb.Query) string
	switch *engineName {
	case "aware":
		e, err := aware.New(m, data, aware.Options{
			Device: dev, Threads: *threads, Sockets: *sockets,
			Pinning: pol, NUMAAware: *numa, TargetSF: *target,
		})
		if err != nil {
			fatal(err)
		}
		run, plan = engine.RunnerOf(e.Run), e.Plan
	case "naive":
		e, err := naive.New(m, data, naive.Options{Device: dev, Threads: *threads, TargetSF: *target})
		if err != nil {
			fatal(err)
		}
		run, plan = engine.RunnerOf(e.Run), e.Plan
	default:
		fatal(fmt.Errorf("unknown engine %q", *engineName))
	}

	queries := ssb.Queries()
	if *query != "" {
		q, err := ssb.QueryByID(*query)
		if err != nil {
			fatal(err)
		}
		queries = []ssb.Query{q}
	}

	if *explain {
		for _, q := range queries {
			fmt.Println(plan(q))
		}
		return
	}

	w := tabwriter.NewWriter(os.Stdout, 2, 4, 2, ' ', 0)
	fmt.Fprintln(w, "query\tseconds\tgroups")
	var total float64
	for _, q := range queries {
		if *showSQL {
			w.Flush()
			fmt.Printf("-- %s\n%s\n", q.ID, q.SQL)
		}
		res, sec, err := run(q)
		if err != nil {
			fatal(err)
		}
		total += sec
		fmt.Fprintf(w, "%s\t%.3f\t%d\n", q.ID, sec, len(res))
		if *showResult {
			w.Flush()
			for _, row := range res.Rows(q) {
				fmt.Printf("    %-40s %d\n", row.Key, row.Value)
			}
		}
	}
	fmt.Fprintf(w, "TOTAL\t%.3f\t\n", total)
	w.Flush()
}

// parseDevice maps the -device flag to a device class.
func parseDevice(s string) (access.DeviceClass, error) {
	switch s {
	case "pmem":
		return access.PMEM, nil
	case "dram":
		return access.DRAM, nil
	}
	return 0, fmt.Errorf("unknown device %q", s)
}

// parsePin maps the -pin flag to a pinning policy.
func parsePin(s string) (cpu.PinPolicy, error) {
	switch s {
	case "cores":
		return cpu.PinCores, nil
	case "numa":
		return cpu.PinNUMA, nil
	case "none":
		return cpu.PinNone, nil
	}
	return 0, fmt.Errorf("unknown pinning %q (want cores, numa, or none)", s)
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "ssb:", err)
	os.Exit(1)
}
