package machine

import (
	"context"
	"fmt"
	"math"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/topology"
)

// Stream is one simulated thread's access pattern for the duration of a Run.
type Stream struct {
	Label      string
	Placement  cpu.Placement // which logical core the thread occupies
	Policy     cpu.PinPolicy // how it was pinned (PinNone enables the scheduler model)
	Region     *Region
	Dir        access.Direction
	Pattern    access.Pattern
	AccessSize int64
	Bytes      float64 // total bytes to move; math.Inf(1) for open-ended
	// GroupID ties grouped-access streams together: streams sharing a
	// non-empty GroupID interleave over one global sequential region
	// (Section 3.1 "Grouped Access") and their combined window determines
	// the thread-to-DIMM distribution.
	GroupID string
	// CPUPerByte folds query-processing work into the thread's demand
	// (seconds of compute per byte streamed); used by the SSB engines.
	CPUPerByte float64
	// Dependent marks serially dependent random accesses (hash probes,
	// pointer chasing): no memory-level parallelism, so per-thread demand
	// drops — much more steeply on PMEM (Section 6.1).
	Dependent bool
	// Weight overrides the fair-share weight (0 = model default).
	Weight float64
}

// Validate rejects structurally broken streams.
func (s *Stream) Validate() error {
	if s.Region == nil {
		return fmt.Errorf("machine: stream %q has no region", s.Label)
	}
	if s.AccessSize <= 0 {
		return fmt.Errorf("machine: stream %q has access size %d", s.Label, s.AccessSize)
	}
	if s.Bytes <= 0 {
		return fmt.Errorf("machine: stream %q has no bytes to move", s.Label)
	}
	if s.Policy < 0 || int(s.Policy) >= pinPolicies {
		return fmt.Errorf("machine: stream %q has unknown pin policy %d", s.Label, s.Policy)
	}
	return nil
}

// StreamResult reports one stream's outcome.
type StreamResult struct {
	Label     string
	Bytes     float64
	Seconds   float64 // completion time within the run (= run elapsed for open-ended streams)
	Bandwidth float64 // bytes/Seconds
}

// RunResult aggregates a Run.
type RunResult struct {
	Elapsed    float64 // virtual seconds until the last finite stream finished
	TotalBytes float64
	// Bandwidth is total bytes over elapsed time, the paper's headline
	// metric for each experiment point.
	Bandwidth float64
	// ReadBandwidth / WriteBandwidth divide each direction's bytes by the
	// completion time of that direction's streams (how Figure 11 reports
	// mixed workloads).
	ReadBandwidth  float64
	WriteBandwidth float64
	Streams        []StreamResult
	// PeakUtilization maps resource names (pmem-media-0, upi-0-1,
	// thread-cores-c5, ...) to their highest utilization during the run —
	// the bottleneck diagnostic the paper obtains from VTune.
	PeakUtilization map[string]float64
}

// Run executes the streams to completion in virtual time and returns the
// measured bandwidths. Machine state (warmth, fsdax faults, wear) persists
// across runs, which is exactly what the paper's warm-up experiments need.
func (m *Machine) Run(streams []*Stream) (RunResult, error) {
	return m.run(context.Background(), streams, m.cfg.MaxVirtualSeconds, false)
}

// RunContext is Run with cooperative cancellation, polled once per solver
// step. Fault-plan runs can stretch virtual (and thus wall) time well past
// a healthy run's, so interactive callers (pmembench under SIGINT) thread
// their signal context through here.
func (m *Machine) RunContext(ctx context.Context, streams []*Stream) (RunResult, error) {
	return m.run(ctx, streams, m.cfg.MaxVirtualSeconds, false)
}

// RunFor executes the streams for a fixed virtual-time window and reports
// the bandwidth sustained within it. Streams may be open-ended
// (Bytes = +Inf); this is how steady-state contended bandwidth is measured
// (e.g., Figure 11's mixed read/write points, where both workloads run
// continuously against each other).
func (m *Machine) RunFor(streams []*Stream, seconds float64) (RunResult, error) {
	if seconds <= 0 {
		return RunResult{}, fmt.Errorf("machine: window must be positive, got %g", seconds)
	}
	return m.run(context.Background(), streams, seconds, false)
}

// RunUntil executes the streams until the first finite stream completes or
// the window elapses, whichever comes first. It is the discrete-event
// primitive under the serving co-simulation: a completion is an event at
// which the caller may admit queued work, so the run must stop there
// instead of carrying the surviving streams to their own ends. The solver
// steps taken up to the stopping point are exactly the ones Run would take.
func (m *Machine) RunUntil(streams []*Stream, seconds float64) (RunResult, error) {
	if seconds <= 0 {
		return RunResult{}, fmt.Errorf("machine: window must be positive, got %g", seconds)
	}
	return m.run(context.Background(), streams, seconds, true)
}

func (m *Machine) run(ctx context.Context, streams []*Stream, maxTime float64, stopFirst bool) (RunResult, error) {
	if len(streams) == 0 {
		return RunResult{}, fmt.Errorf("machine: no streams")
	}
	for _, s := range streams {
		if err := s.Validate(); err != nil {
			return RunResult{}, err
		}
	}
	for _, s := range streams {
		m.rec.pinStreams[s.Policy].Inc()
		if s.Placement.HTShared {
			m.rec.htShared.Inc()
		}
	}
	sc := m.acquireScratch(streams)
	defer m.releaseScratch()
	rm, eng := sc.rm, sc.eng
	eng.StopOnCompletion = stopFirst
	eng.Add(rm.flows...)
	if err := eng.RunContext(ctx, maxTime); err != nil {
		return RunResult{}, fmt.Errorf("machine: run failed: %w", err)
	}
	// The run's virtual seconds advance the machine's lifetime clock, which
	// is the axis fault plans are scheduled on.
	m.clock = rm.clock0 + eng.Now
	for i, s := range streams {
		m.rec.pinBytes[s.Policy].Add(rm.flows[i].Moved)
	}
	m.finishRun(rm, eng.Now)

	res := RunResult{Elapsed: eng.Now, PeakUtilization: rm.peakUtilMap(),
		Streams: make([]StreamResult, 0, len(streams))}
	var readBytes, writeBytes, readEnd, writeEnd float64
	for i, s := range streams {
		f := rm.flows[i]
		sec := f.FinishedAt
		if !f.Done {
			sec = eng.Now
		}
		bw := 0.0
		if sec > 0 {
			bw = f.Moved / sec
		}
		res.Streams = append(res.Streams, StreamResult{Label: s.Label, Bytes: f.Moved, Seconds: sec, Bandwidth: bw})
		res.TotalBytes += f.Moved
		if s.Dir == access.Read {
			readBytes += f.Moved
			readEnd = math.Max(readEnd, sec)
		} else {
			writeBytes += f.Moved
			writeEnd = math.Max(writeEnd, sec)
		}
	}
	if res.Elapsed > 0 {
		res.Bandwidth = res.TotalBytes / res.Elapsed
	}
	if readEnd > 0 {
		res.ReadBandwidth = readBytes / readEnd
	}
	if writeEnd > 0 {
		res.WriteBandwidth = writeBytes / writeEnd
	}
	m.traceFinishRun(rm, streams, eng.Now, &res)
	return res, nil
}

// threadSocket returns the socket the stream's thread runs on.
func (m *Machine) threadSocket(s *Stream) topology.SocketID {
	return m.topo.SocketOfCore(s.Placement.Core)
}
