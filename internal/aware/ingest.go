package aware

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/engine"
	"repro/internal/machine"
	"repro/internal/ssb"
	"repro/internal/topology"
)

// IngestReport describes the concurrent-ingestion side of RunWithIngest.
type IngestReport struct {
	ThreadsPerSocket int
	// Bandwidth is the sustained ingest write rate while the query ran.
	Bandwidth float64
	// BytesIngested is how much new data landed during the query.
	BytesIngested float64
}

// RunWithIngest executes the query while ingestThreadsPerSocket writers per
// socket continuously append new data to a staging area on the same PMEM —
// Section 5.1's scenario: "queries should be able to run while data is
// ingested to not halt the entire system". The writers follow the paper's
// ingestion best practice (4 KiB individual sequential stores); the mixed
// read/write interference of Figure 11 emerges in both directions'
// slowdowns.
func (e *Engine) RunWithIngest(q ssb.Query, ingestThreadsPerSocket int) (QueryRun, IngestReport, error) {
	rep := IngestReport{ThreadsPerSocket: ingestThreadsPerSocket}
	if ingestThreadsPerSocket < 0 {
		return QueryRun{}, rep, fmt.Errorf("aware: negative ingest threads")
	}
	var extra []*machine.Stream
	if ingestThreadsPerSocket > 0 {
		if err := e.ensureStaging(); err != nil {
			return QueryRun{}, rep, err
		}
		for s := 0; s < e.opt.Sockets; s++ {
			placements := cpu.AssignThreadsOffset(e.m.Topology(), e.opt.Pinning,
				e.factRegion[s].Socket, ingestThreadsPerSocket, e.opt.Threads/e.opt.Sockets)
			for t := 0; t < ingestThreadsPerSocket; t++ {
				extra = append(extra, &machine.Stream{
					Label:      fmt.Sprintf("ingest/s%d/t%02d", s, t),
					Placement:  placements[t],
					Policy:     e.opt.Pinning,
					Region:     e.staging[s],
					Dir:        access.Write,
					Pattern:    access.SeqIndividual,
					AccessSize: 4096,
					Bytes:      math.Inf(1), // runs for the query's duration
				})
			}
		}
	}
	run, err := e.runWith(q, extra)
	if err != nil {
		return run, rep, err
	}
	// The open-ended ingest streams accumulated bytes for the fact phase's
	// duration; read them back from the machine result.
	if len(extra) > 0 {
		for _, sr := range e.sim.Last.Streams {
			if strings.HasPrefix(sr.Label, "ingest/") {
				rep.BytesIngested += sr.Bytes
			}
		}
		if e.sim.Last.Elapsed > 0 {
			rep.Bandwidth = rep.BytesIngested / e.sim.Last.Elapsed
		}
	}
	return run, rep, nil
}

func (e *Engine) ensureStaging() error {
	if e.staging != nil {
		return nil
	}
	e.staging = make([]*machine.Region, e.opt.Sockets)
	size := int64(64) << 30
	if e.opt.Device == access.DRAM {
		size = 8 << 30
	}
	for s := 0; s < e.opt.Sockets; s++ {
		var err error
		e.staging[s], err = engine.AllocTable(e.m, fmt.Sprintf("ssb/staging-%d", s), topology.SocketID(s), size, e.opt.Device)
		if err != nil {
			return err
		}
		e.staging[s].CoherenceStable = true
	}
	return nil
}
