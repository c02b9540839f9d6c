package aware

import (
	"repro/internal/access"
	"repro/internal/dash"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/ssb"
	"repro/internal/topology"
)

// simulateBuild charges the index-construction traffic: each active socket
// scans its replicated dimension tables and writes the Dash segments
// (random 256 B writes — bucket granularity).
func (e *Engine) simulateBuild(indexes []*dimIndex) (float64, error) {
	e.sim.Reset()
	for s := 0; s < e.opt.Sockets; s++ {
		placements := e.sim.Placements(e.opt.Pinning, e.factRegion[s].Socket, len(indexes))
		for i, ix := range indexes {
			scale := e.dimScale[ix.name]
			scanBytes := float64(e.data.Rows(ix.name)) * 200 * scale
			writeBytes := max(float64(ix.buildStats.BucketWrites)*dash.BucketBytes*scale, dash.BucketBytes)
			cpuSec := float64(ix.entries) * scale * 200e-9
			e.sim.Add(machine.Stream{
				Label:      e.labels.Get(labelKey{kind: 'b', name: ix.name, s: s, t: -1}),
				Placement:  placements[i],
				Policy:     e.opt.Pinning,
				Region:     e.dimRegion[s],
				Dir:        access.Read,
				Pattern:    access.SeqIndividual,
				AccessSize: 4096,
				Bytes:      max(scanBytes, 4096),
				CPUPerByte: cpuSec / max(scanBytes, 4096),
			})
			e.sim.Add(machine.Stream{
				Label:      e.labels.Get(labelKey{kind: 'i', name: ix.name, s: s, t: -1}),
				Placement:  placements[i],
				Policy:     e.opt.Pinning,
				Region:     e.dimRegion[s],
				Dir:        access.Write,
				Pattern:    access.Random,
				AccessSize: dash.BucketBytes,
				Bytes:      writeBytes,
			})
		}
	}
	return e.sim.Run()
}

// simulateFactPhase charges the dominant phase: the parallel fact-table scan
// with Dash probes and aggregation. It is each query's last machine run, so
// e.sim.Last holds its result until the next query.
func (e *Engine) simulateFactPhase(q ssb.Query, indexes []*dimIndex, qualifying int64, groups int, extra []*machine.Stream) (float64, Stats, error) {
	rows := int64(len(e.data.Lineorder))
	stats := Stats{
		TuplesScanned:  int64(float64(rows) * e.factScale),
		BytesScanned:   int64(float64(rows) * e.factScale * ssb.TupleBytes),
		QualifyingRows: int64(float64(qualifying) * e.factScale),
		Groups:         groups,
	}
	sockets := float64(e.opt.Sockets)
	e.sim.Reset()

	// Per-thread CPU: decode + predicates + aggregation updates, spread over
	// the scanned bytes.
	scanCPUPerByte := (ScanCPUPerRow + AggCPUPerRow*float64(qualifying)/float64(rows)) / ssb.TupleBytes

	for s := 0; s < e.opt.Sockets; s++ {
		n := e.threadsOn(s)
		if n == 0 {
			continue
		}
		placements := e.sim.Placements(e.opt.Pinning, topology.SocketID(s), n)
		scanBytesSocket := float64(stats.BytesScanned) * e.shareOf(s)
		for t, pl := range placements {
			e.addSplit(labelKey{kind: 's', s: s, t: t}, machine.Stream{
				Placement:  pl,
				Region:     e.factRegion[s],
				Dir:        access.Read,
				Pattern:    access.SeqIndividual,
				AccessSize: 4096,
				Bytes:      scanBytesSocket / float64(n),
				CPUPerByte: scanCPUPerByte,
			}, e.factRegion)
		}

		for _, ix := range indexes {
			probes := float64(ix.factStats.BucketReads) // fact-phase bucket loads
			// Logical probes: a hit or a miss reads ~2 buckets (plus the
			// stash when spilled), so halve the recorded reads.
			logical := probes / 2
			// Cache footprint at target scale: the filtered entries grow with
			// the dimension's cardinality; ~32 B of segment space per record
			// at Dash's typical load factor.
			missRate := max(engine.CacheMissRate(LLCBytes, MaxCacheHit, float64(ix.entries)*e.dimScale[ix.name]*32), 0.05)
			probeBytesSocket := probes * dash.BucketBytes * missRate * e.factScale / sockets
			probeCPUSocket := logical * ProbeCPU * e.factScale / sockets
			stats.Probes += int64(logical * e.factScale / sockets)
			stats.ProbeBytes += int64(probeBytesSocket)
			for t, pl := range placements {
				bytes := max(probeBytesSocket/float64(n), dash.BucketBytes)
				e.addSplit(labelKey{kind: 'p', name: ix.name, s: s, t: t}, machine.Stream{
					Placement:  pl,
					Region:     e.dimRegion[s],
					Dir:        access.Read,
					Pattern:    access.Random,
					AccessSize: dash.BucketBytes,
					Bytes:      bytes,
					CPUPerByte: probeCPUSocket / float64(n) / bytes,
					Dependent:  true,
				}, e.dimRegion)
			}
		}
	}

	e.sim.Append(extra...)
	sec, err := e.sim.Run()
	return sec, stats, err
}

// addSplit adds st, labelled by k and pinned per the engine's policy, either
// near-only (NUMA-aware) or split 50/50 between its near region and the next
// socket's copy in regions (the pre-optimization "2-Socket" row of Table 1,
// where data placement ignores NUMA).
func (e *Engine) addSplit(k labelKey, st machine.Stream, regions []*machine.Region) {
	st.Policy = e.opt.Pinning
	if e.opt.NUMAAware || e.opt.Sockets == 1 {
		st.Label = e.labels.Get(k)
		e.sim.Add(st)
		return
	}
	st.Bytes /= 2
	k.variant = 'n'
	st.Label = e.labels.Get(k)
	e.sim.Add(st)
	k.variant = 'f'
	st.Label = e.labels.Get(k)
	st.Region = regions[(k.s+1)%e.opt.Sockets]
	e.sim.Add(st)
}

// simulateMerge is the final single-threaded combination of per-thread
// partial aggregates: pure CPU over tiny data.
func (e *Engine) simulateMerge(groups int) float64 {
	return float64(groups*e.opt.Threads) * 50e-9
}
