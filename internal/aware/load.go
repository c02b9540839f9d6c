package aware

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/machine"
	"repro/internal/ssb"
)

// LoadReport times the initial bulk import of the database — the
// write-heavy OLAP phase Section 4 opens with ("an important feature of
// data warehouses is an efficient data import").
type LoadReport struct {
	Seconds        float64
	FactBytes      int64
	DimBytes       int64
	PreFaultSec    float64 // fsdax page-zeroing cost (Section 2.3)
	WriteBandwidth float64 // bytes/s achieved during the fact import
}

// SimulateLoad charges the bulk import of the fact table and replicated
// dimensions at target scale, using the configuration's thread placement.
// Best-practice loads (4-6 pinned write threads per socket, 4 KiB chunks,
// Insight #7) reach the 12.6 GB/s per-socket write peak; oversubscribed or
// unpinned configurations pay the Section 4 penalties.
//
// writeThreadsPerSocket = 0 uses the advisor's recommendation (6).
func (e *Engine) SimulateLoad(writeThreadsPerSocket int) (LoadReport, error) {
	if writeThreadsPerSocket <= 0 {
		writeThreadsPerSocket = 6
	}
	rep := LoadReport{
		FactBytes: int64(float64(len(e.data.Lineorder)) * e.factScale * ssb.TupleBytes),
		DimBytes:  e.dimFootprint() * int64(e.opt.Sockets),
	}

	var streams []*machine.Stream
	for s := 0; s < e.opt.Sockets; s++ {
		placements := e.sim.Placements(e.opt.Pinning, e.factRegion[s].Socket, writeThreadsPerSocket)
		perThread := float64(rep.FactBytes) / float64(e.opt.Sockets) / float64(writeThreadsPerSocket)
		for t := 0; t < writeThreadsPerSocket; t++ {
			streams = append(streams, &machine.Stream{
				Label:      fmt.Sprintf("load/fact/s%d/t%02d", s, t),
				Placement:  placements[t],
				Policy:     e.opt.Pinning,
				Region:     e.factRegion[s],
				Dir:        access.Write,
				Pattern:    access.SeqIndividual,
				AccessSize: 4096,
				Bytes:      perThread,
				CPUPerByte: 5e-9 / ssb.TupleBytes, // tuple encode cost
			})
		}
		// Replicated dimensions: one writer per socket, small volume.
		streams = append(streams, &machine.Stream{
			Label:      fmt.Sprintf("load/dims/s%d", s),
			Placement:  placements[0],
			Policy:     e.opt.Pinning,
			Region:     e.dimRegion[s],
			Dir:        access.Write,
			Pattern:    access.SeqIndividual,
			AccessSize: 4096,
			Bytes:      float64(e.dimFootprint()),
		})
	}
	res, err := e.m.Run(streams)
	if err != nil {
		return rep, err
	}
	rep.Seconds = res.Elapsed
	rep.WriteBandwidth = res.WriteBandwidth

	// The engine's regions are fsdax; importing touches every page, so each
	// loader thread pays the page-zeroing fault cost for its share
	// (0.5 ms per 2 MiB page, Section 2.3 — the paper's "pre-faulting 1 GB
	// takes at least 0.25 seconds" is the single-thread figure).
	if !e.opt.SSDScan && e.opt.Device == access.PMEM {
		loaders := float64(writeThreadsPerSocket * e.opt.Sockets)
		rep.PreFaultSec = float64(rep.FactBytes+rep.DimBytes) * e.m.Config().PreFaultSecPerByte / loaders
	}
	rep.Seconds += rep.PreFaultSec
	return rep, nil
}
