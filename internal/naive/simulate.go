package naive

import (
	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/ssb"
)

// simulateBuild charges the dimension scans plus the chained-map node
// writes: small random writes, the pattern Section 4.1 warns about.
func (e *Engine) simulateBuild(dims []dimMeta) (float64, error) {
	placements := e.sim.Placements(cpu.PinNUMA, 0, len(dims))
	e.sim.Reset()
	for i, ds := range dims {
		scale := e.dimScale[ds.name]
		rows := float64(e.data.Rows(ds.name)) * scale
		entries := float64(ds.entries) * scale
		e.sim.Add(machine.Stream{
			Label:      ds.scanLabel,
			Placement:  placements[i],
			Policy:     cpu.PinNUMA,
			Region:     e.tableRegion,
			Dir:        access.Read,
			Pattern:    access.SeqIndividual,
			AccessSize: 4096,
			Bytes:      max(rows*8, 4096),
			CPUPerByte: (rows * ScanCPUPerValue) / max(rows*8, 4096),
		})
		e.sim.Add(machine.Stream{
			Label:      ds.mapLabel,
			Placement:  placements[i],
			Policy:     cpu.PinNUMA,
			Region:     e.tableRegion,
			Dir:        access.Write,
			Pattern:    access.Random,
			AccessSize: ChaseBytes,
			Bytes:      max(entries*MapBytesPerEntry, ChaseBytes),
			CPUPerByte: (entries * ProbeCPU) / max(entries*MapBytesPerEntry, ChaseBytes),
			Dependent:  true,
		})
	}
	return e.sim.Run()
}

// simulatePipeline charges the fact-side column scan, the hash-join stages
// (probes + reference-segment gathers + materialization), and the final
// aggregate. Stages are pipeline breakers and run sequentially, as Hyrise's
// operators do.
func (e *Engine) simulatePipeline(q ssb.Query, scanSurvivors int64, stages []joinStage, finalRows int64) (float64, Stats, error) {
	rows := float64(len(e.data.Lineorder))
	stats := Stats{}
	var total float64

	// Stage 0: fact-local predicate column scans (quantity, discount for
	// flight 1; always at least the first join key column).
	predCols := 0.0
	if q.LOFilter != nil {
		predCols = 2
	}
	if predCols > 0 {
		scanBytes := rows * 4 * predCols * e.factScale
		stats.ColumnBytesScanned += int64(scanBytes)
		sec, err := e.runStage("scan-pred", stageTraffic{
			inputBytes: scanBytes, inputPattern: access.SeqIndividual, inputSize: 4096,
			inputCPU: rows * predCols * ScanCPUPerValue * e.factScale,
		})
		if err != nil {
			return 0, stats, err
		}
		total += sec
	}

	for _, st := range stages {
		probesIn := float64(st.probesIn) * e.factScale
		scale := e.dimScale[st.dim]
		mapBytes := float64(st.mapEntries) * scale * MapBytesPerEntry
		miss := engine.CacheMissRate(LLCBytes, MaxCacheHit, mapBytes)

		var inputBytes float64
		var inputPattern access.Pattern
		var inputSize int64
		if st.first {
			// First join reads the key column sequentially.
			inputBytes = rows * 4 * e.factScale
			inputPattern = access.SeqIndividual
			inputSize = 4096
		} else {
			// Later joins gather the key column through the previous stage's
			// position list: random 64 B reads into a column far larger than
			// the LLC (uncached).
			inputBytes = probesIn * ChaseBytes
			inputPattern = access.Random
			inputSize = ChaseBytes
			stats.GatherBytes += int64(inputBytes)
		}
		stats.ColumnBytesScanned += int64(inputBytes)

		probeBytes := probesIn * ChasesPerProbe * ChaseBytes * miss
		stats.Probes += int64(probesIn)
		matBytes := float64(st.survivors) * e.factScale * MaterializeBytesPerRow
		stats.MaterializedBytes += int64(matBytes)

		sec, err := e.runStage(st.name, stageTraffic{
			inputBytes:   inputBytes,
			inputPattern: inputPattern,
			inputSize:    inputSize,
			inputCPU:     probesIn * ScanCPUPerValue,
			probeBytes:   probeBytes,
			probeCPU:     probesIn * ProbeCPU,
			matBytes:     matBytes,
			matCPU:       float64(st.survivors) * e.factScale * MaterializeCPUPerRow,
		})
		if err != nil {
			return 0, stats, err
		}
		total += sec
	}

	// Aggregate: read the final intermediate, update the (small, mostly
	// cached) group hash table.
	final := float64(finalRows) * e.factScale
	if final > 0 {
		sec, err := e.runStage("aggregate", stageTraffic{
			inputBytes:   final * MaterializeBytesPerRow,
			inputPattern: access.SeqIndividual,
			inputSize:    4096,
			inputCPU:     0,
			probeBytes:   final * ChaseBytes * 0.05,
			probeCPU:     final * AggCPUPerRow,
			matBytes:     0,
			matCPU:       0,
		})
		if err != nil {
			return 0, stats, err
		}
		total += sec
	}
	return total, stats, nil
}

type stageTraffic struct {
	inputBytes   float64
	inputPattern access.Pattern
	inputSize    int64
	inputCPU     float64
	probeBytes   float64
	probeCPU     float64
	matBytes     float64
	matCPU       float64
}

// runStage spreads one operator's traffic over the engine's threads and
// runs it on the machine.
func (e *Engine) runStage(name string, tr stageTraffic) (float64, error) {
	placements := e.sim.Placements(cpu.PinNUMA, 0, e.opt.Threads)
	labels := e.labels.Get(name)
	n := float64(e.opt.Threads)
	e.sim.Reset()
	for t, pl := range placements {
		if tr.inputBytes > 0 {
			b := max(tr.inputBytes/n, float64(tr.inputSize))
			e.sim.Add(machine.Stream{
				Label: labels.in[t], Placement: pl, Policy: cpu.PinNUMA,
				Region: e.tableRegion, Dir: access.Read, Pattern: tr.inputPattern,
				AccessSize: tr.inputSize, Bytes: b,
				CPUPerByte: tr.inputCPU / n / b,
				Dependent:  tr.inputPattern == access.Random,
			})
		}
		if tr.probeBytes > 0 {
			b := max(tr.probeBytes/n, ChaseBytes)
			e.sim.Add(machine.Stream{
				Label: labels.probe[t], Placement: pl, Policy: cpu.PinNUMA,
				Region: e.tableRegion, Dir: access.Read, Pattern: access.Random,
				AccessSize: ChaseBytes, Bytes: b,
				CPUPerByte: tr.probeCPU / n / b,
				Dependent:  true,
			})
		}
		if tr.matBytes > 0 {
			b := max(tr.matBytes/n, 64)
			e.sim.Add(machine.Stream{
				Label: labels.mat[t], Placement: pl, Policy: cpu.PinNUMA,
				Region: e.tableRegion, Dir: access.Write, Pattern: access.SeqIndividual,
				AccessSize: 64, Bytes: b,
				CPUPerByte: tr.matCPU / n / b,
			})
		}
	}
	return e.sim.Run()
}
