// Package workload builds the microbenchmark access patterns of the paper's
// Sections 3-5 as machine streams: N threads reading or writing a region
// sequentially (grouped or individual) or randomly, with a chosen access
// size, pinning policy, and socket.
package workload

import (
	"fmt"
	"math"
	"strconv"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/topology"
)

// Spec describes one benchmark point.
type Spec struct {
	Name       string
	Dir        access.Direction
	Pattern    access.Pattern
	AccessSize int64
	Threads    int
	Policy     cpu.PinPolicy
	// Socket is where the threads run (ignored for PinNone).
	Socket topology.SocketID
	// Region is the memory being accessed.
	Region *machine.Region
	// TotalBytes is the volume moved across all threads (the paper uses
	// 70 GB for sequential and bounded regions for random benchmarks).
	TotalBytes int64
	// CPUPerByte folds per-byte processing cost into each thread.
	CPUPerByte float64
}

// Validate rejects malformed specs.
func (s Spec) Validate() error {
	if s.Threads <= 0 {
		return fmt.Errorf("workload: %q needs at least one thread, got %d", s.Name, s.Threads)
	}
	if s.AccessSize <= 0 {
		return fmt.Errorf("workload: %q needs a positive access size, got %d", s.Name, s.AccessSize)
	}
	if s.Region == nil {
		return fmt.Errorf("workload: %q has no region", s.Name)
	}
	if s.TotalBytes <= 0 {
		return fmt.Errorf("workload: %q has no bytes, got %d", s.Name, s.TotalBytes)
	}
	return nil
}

// Build expands the spec into per-thread machine streams.
func Build(m *machine.Machine, spec Spec) ([]*machine.Stream, error) {
	return buildOffset(m, spec, 0)
}

func buildOffset(m *machine.Machine, spec Spec, offset int) ([]*machine.Stream, error) {
	if err := spec.Validate(); err != nil {
		return nil, err
	}
	placements := cpu.AssignThreadsOffset(m.Topology(), spec.Policy, spec.Socket, spec.Threads, offset)
	perThread := float64(spec.TotalBytes) / float64(spec.Threads)
	groupID := ""
	if spec.Pattern == access.SeqGrouped {
		groupID = spec.Name + "/g" + strconv.Itoa(spec.Threads)
	}
	streams := make([]*machine.Stream, spec.Threads)
	for i := 0; i < spec.Threads; i++ {
		pad := "/t" // labels number threads with at least two digits
		if i < 10 {
			pad = "/t0"
		}
		streams[i] = &machine.Stream{
			Label:      spec.Name + pad + strconv.Itoa(i),
			Placement:  placements[i],
			Policy:     spec.Policy,
			Region:     spec.Region,
			Dir:        spec.Dir,
			Pattern:    spec.Pattern,
			AccessSize: spec.AccessSize,
			Bytes:      perThread,
			GroupID:    groupID,
			CPUPerByte: spec.CPUPerByte,
		}
	}
	return streams, nil
}

// Run builds and executes one spec, returning its aggregate bandwidth in
// bytes/s (total bytes over the makespan), matching how the paper reports
// single-workload benchmarks.
func Run(m *machine.Machine, spec Spec) (float64, error) {
	streams, err := Build(m, spec)
	if err != nil {
		return 0, err
	}
	res, err := m.Run(streams)
	if err != nil {
		return 0, err
	}
	return res.Bandwidth, nil
}

// RunMixed executes several specs concurrently (e.g., Figure 6/10's
// multi-socket combinations) to completion and returns the per-direction
// bandwidths along with the total.
func RunMixed(m *machine.Machine, specs ...Spec) (machine.RunResult, error) {
	all, err := buildAll(m, specs)
	if err != nil {
		return machine.RunResult{}, err
	}
	return m.Run(all)
}

// RunSteady runs the specs as open-ended contending workloads for a fixed
// virtual-time window and reports the sustained bandwidths. This matches how
// the paper measures mixed and concurrent workloads: both sides run
// continuously against each other for the whole measurement (Figure 11).
func RunSteady(m *machine.Machine, seconds float64, specs ...Spec) (machine.RunResult, error) {
	all, err := buildAll(m, specs)
	if err != nil {
		return machine.RunResult{}, err
	}
	for _, s := range all {
		s.Bytes = math.Inf(1)
	}
	return m.RunFor(all, seconds)
}

func buildAll(m *machine.Machine, specs []Spec) ([]*machine.Stream, error) {
	// Concurrent specs pinned to the same socket occupy disjoint cores, as
	// the paper's mixed benchmarks do (x write threads + y read threads on
	// one socket are x+y distinct threads).
	type slot struct {
		policy cpu.PinPolicy
		socket int
	}
	used := map[slot]int{}
	var all []*machine.Stream
	for _, spec := range specs {
		k := slot{spec.Policy, int(spec.Socket)}
		streams, err := buildOffset(m, spec, used[k])
		if err != nil {
			return nil, err
		}
		used[k] += spec.Threads
		all = append(all, streams...)
	}
	return all, nil
}

// GBs converts bytes/s to the paper's GB/s unit.
func GBs(bytesPerSec float64) float64 { return bytesPerSec / 1e9 }

// Inf is a convenience for open-ended streams.
var Inf = math.Inf(1)
