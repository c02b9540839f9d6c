// Package fluid implements the bandwidth model at the heart of the machine
// simulator: a weighted max-min fair ("progressive filling") rate solver over
// capacity-constrained resources, and a virtual-time engine that advances a
// set of data flows through piecewise-constant rate allocations.
//
// Resources model hardware components with a service capacity: a thread's
// issue capability, a DIMM's media bandwidth, an iMC's queue drain rate, a
// UPI link direction. A flow (one thread's read or write stream) consumes
// each resource at a per-byte cost; costs are recomputed between solver steps
// by the machine model so that state-dependent effects (write-combining
// pressure, NUMA directory warm-up, mixed read/write interference) change the
// allocation mid-run.
package fluid

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Resource is a capacity-constrained hardware component. Capacity is in
// resource units per virtual second; a cost of c units/byte on a flow running
// at r bytes/s loads the resource with c*r units/s.
type Resource struct {
	Name     string
	Capacity float64

	load float64 // transient: units/s allocated in the current solve

	// Solver scratch registration: sidx indexes the solver's per-resource
	// slope slot; valid only while sepoch matches the registering solve
	// call. Epochs are globally unique (see solveEpoch), so a resource can
	// move between Solver instances without carrying stale indices.
	sidx   int
	sepoch uint64
}

// Load returns the units/s allocated on the resource by the last Solve call.
func (r *Resource) Load() float64 { return r.load }

// Utilization returns load/capacity from the last Solve call.
func (r *Resource) Utilization() float64 {
	if r.Capacity <= 0 {
		return 0
	}
	return r.load / r.Capacity
}

// Cost is one entry of a flow's cost vector.
type Cost struct {
	Resource *Resource
	PerByte  float64 // resource units consumed per byte transferred
}

// Flow is a data stream competing for resources.
type Flow struct {
	Name      string
	Remaining float64 // bytes left to transfer; math.Inf(1) for open-ended flows
	Weight    float64 // fair-share weight; 0 or negative is treated as 1
	MaxRate   float64 // optional per-flow rate ceiling in bytes/s; 0 = none
	Costs     []Cost  // recomputed by the model before each solve

	// Outputs.
	Rate       float64 // bytes/s allocated by the last Solve
	Done       bool    // set by the Engine when Remaining reaches zero
	FinishedAt float64 // virtual time of completion (valid when Done)
	Moved      float64 // total bytes transferred so far
}

func (f *Flow) weight() float64 {
	if f.Weight > 0 {
		return f.Weight
	}
	return 1
}

// solveEpoch issues a globally unique epoch per Solve call so resource
// registrations from one Solver instance can never be mistaken for another's.
var solveEpoch atomic.Uint64

// Solver computes weighted max-min fair allocations with reusable scratch
// state. A zero Solver is ready to use; after the first Solve on a given
// flow/resource population, subsequent Solve calls allocate nothing. The
// allocation it computes is bit-identical to the package-level Solve: slopes
// accumulate in flow order, loads update in flow order, and the per-round
// step is a minimum (order-independent).
type Solver struct {
	touched []*Resource // resources registered this solve, first-touch order
	slope   []float64   // parallel to touched: load increase per unit theta
	active  []*Flow
	frozen  []bool // parallel to active
}

// register stamps the resource with this solve's epoch and assigns it a
// slope slot. Loads are deliberately NOT reset here: only resources passed
// in the resources list are zeroed, matching Solve's historical contract
// for cost-only resources.
func (s *Solver) register(r *Resource, epoch uint64) {
	if r.sepoch == epoch {
		return
	}
	r.sepoch = epoch
	r.sidx = len(s.touched)
	s.touched = append(s.touched, r)
	if len(s.slope) < len(s.touched) {
		s.slope = append(s.slope, 0)
	}
}

// Solve computes a weighted max-min fair rate allocation for the active
// (not-Done, Remaining > 0) flows, writing each flow's Rate and each
// resource's load. It implements progressive filling: all active flows'
// rates rise proportionally to their weights until a resource saturates
// (freezing every flow that uses it) or a flow reaches MaxRate.
func (s *Solver) Solve(flows []*Flow, resources []*Resource) {
	const eps = 1e-12

	epoch := solveEpoch.Add(1)
	s.touched = s.touched[:0]
	for _, r := range resources {
		r.load = 0
		s.register(r, epoch)
	}
	s.active = s.active[:0]
	for _, f := range flows {
		f.Rate = 0
		if !f.Done && f.Remaining > 0 {
			s.active = append(s.active, f)
		}
	}
	// Register cost-only resources up front; cost vectors do not change
	// during a solve, so rounds below only reset slope slots.
	for _, f := range s.active {
		for _, c := range f.Costs {
			if c.PerByte > 0 {
				s.register(c.Resource, epoch)
			}
		}
	}
	if cap(s.frozen) < len(s.active) {
		s.frozen = make([]bool, len(s.active))
	}
	s.frozen = s.frozen[:len(s.active)]
	for i := range s.frozen {
		s.frozen[i] = false
	}
	nFrozen := 0

	for nFrozen < len(s.active) {
		// Per-resource load increase per unit of theta.
		for i := range s.touched {
			s.slope[i] = 0
		}
		for i, f := range s.active {
			if s.frozen[i] {
				continue
			}
			w := f.weight()
			for _, c := range f.Costs {
				if c.PerByte > 0 {
					s.slope[c.Resource.sidx] += w * c.PerByte
				}
			}
		}

		// Largest theta increment before a resource saturates or a flow caps.
		step := math.Inf(1)
		for i, r := range s.touched {
			sl := s.slope[i]
			if sl <= 0 {
				continue
			}
			headroom := r.Capacity - r.load
			if headroom < 0 {
				headroom = 0
			}
			if d := headroom / sl; d < step {
				step = d
			}
		}
		for i, f := range s.active {
			if s.frozen[i] || f.MaxRate <= 0 {
				continue
			}
			if d := (f.MaxRate - f.Rate) / f.weight(); d < step {
				step = d
			}
		}
		if math.IsInf(step, 1) {
			// No flow touches any finite resource and none has a cap: the
			// model is malformed. Freeze everything at zero extra rate to
			// guarantee termination.
			break
		}
		if step < 0 {
			step = 0
		}

		// Advance all unfrozen flows by step.
		for i, f := range s.active {
			if s.frozen[i] {
				continue
			}
			inc := f.weight() * step
			f.Rate += inc
			for _, c := range f.Costs {
				if c.PerByte > 0 {
					c.Resource.load += inc * c.PerByte
				}
			}
		}

		// Freeze flows on saturated resources and flows at their cap.
		progressed := false
		for i, f := range s.active {
			if s.frozen[i] {
				continue
			}
			if f.MaxRate > 0 && f.Rate >= f.MaxRate-eps*math.Max(1, f.MaxRate) {
				s.frozen[i] = true
				nFrozen++
				progressed = true
				continue
			}
			for _, c := range f.Costs {
				if c.PerByte <= 0 {
					continue
				}
				r := c.Resource
				if r.load >= r.Capacity-eps*math.Max(1, r.Capacity) {
					s.frozen[i] = true
					nFrozen++
					progressed = true
					break
				}
			}
		}
		if !progressed {
			// step == 0 without any freeze would loop forever; freeze all
			// remaining flows defensively. Should not happen with positive
			// capacities.
			break
		}
	}
}

// Solve is the package-level convenience wrapper: a one-shot Solver. Loops
// that solve repeatedly should hold a Solver to reuse its scratch state.
func Solve(flows []*Flow, resources []*Resource) {
	var s Solver
	s.Solve(flows, resources)
}

// Model supplies state-dependent behaviour to the Engine.
type Model interface {
	// Prepare recomputes flow cost vectors and resource capacities from the
	// current machine state, before a solve. now is the virtual time.
	Prepare(now float64, flows []*Flow)
	// Resources returns the resources participating in the solve.
	Resources() []*Resource
	// Horizon returns the maximum virtual-time step the engine may take
	// before machine state (e.g., NUMA directory warmth) could change the
	// cost model, given the just-solved rates. Return math.Inf(1) when no
	// state change is pending.
	Horizon(now float64, flows []*Flow) float64
	// Advance notifies the model that dt seconds elapsed with the current
	// allocation, so it can update cumulative state (warmth counters, wear).
	Advance(now, dt float64, flows []*Flow)
}

// SteadyModel is an optional Model extension. A model that can cheaply
// report that costs and capacities are unchanged since its last
// Prepare/Advance cycle lets the engine skip re-preparing and re-solving:
// virtual time fast-forwards to the next event horizon (flow completion,
// model horizon such as a warm-up or fault-plan knot, or the run deadline)
// with the existing rate allocation. Because the engine's step sequence is
// unchanged — only redundant solves are skipped — results are byte-identical
// to the non-steady path.
type SteadyModel interface {
	Model
	// Steady reports whether the cost model at virtual time now is
	// guaranteed identical to the one used for the last solve. Return
	// false whenever in doubt; the engine then re-prepares as usual.
	Steady(now float64) bool
}

// Engine advances flows through a Model in virtual time.
type Engine struct {
	Model Model
	Now   float64

	// DisableSteady forces a Prepare+Solve on every step even when the
	// model implements SteadyModel; a test hook for verifying the
	// fast-forward path changes nothing.
	DisableSteady bool

	// StopOnCompletion makes Run return as soon as any finite flow
	// completes instead of running the remaining flows to their own ends.
	// Discrete-event layers on top of the engine (the serving
	// co-simulation) use it: a flow completion is an event at which the
	// caller may change the flow population, so the engine must hand
	// control back. The steps taken up to the completion are identical to
	// an uninterrupted run's.
	StopOnCompletion bool

	flows  []*Flow
	solver Solver
}

// NewEngine creates an engine over the model.
func NewEngine(m Model) *Engine { return &Engine{Model: m} }

// Add registers flows; may be called between Run calls.
func (e *Engine) Add(flows ...*Flow) { e.flows = append(e.flows, flows...) }

// Flows returns all registered flows.
func (e *Engine) Flows() []*Flow { return e.flows }

// Reset drops all flows and rewinds the clock (model state is untouched).
// The flow slice's backing array is retained so an engine reused across runs
// reaches a zero-alloc steady state.
func (e *Engine) Reset() {
	e.flows = e.flows[:0]
	e.Now = 0
}

// ErrStalled is returned when no active flow can make progress.
var ErrStalled = fmt.Errorf("fluid: engine stalled with active flows at zero rate")

// Run advances virtual time until every finite flow completes or until
// maxTime (absolute virtual time) is reached. Open-ended flows
// (Remaining = +Inf) do not prevent completion of the run; they accumulate
// Moved bytes until all finite flows are done.
func (e *Engine) Run(maxTime float64) error {
	return e.RunContext(context.Background(), maxTime)
}

// RunContext is Run with cooperative cancellation: the context is polled
// once per solver step (virtual time, so steps are cheap and bounded), and
// the context's error is returned verbatim on cancellation. Cancellation
// does not perturb determinism — a completed run takes the exact same
// steps whether or not a context is attached.
func (e *Engine) RunContext(ctx context.Context, maxTime float64) error {
	const minStep = 1e-9 // 1 ns of virtual time

	if ctx == nil {
		ctx = context.Background()
	}
	sm, hasSteady := e.Model.(SteadyModel)
	hasSteady = hasSteady && !e.DisableSteady
	solved := false // rates from the last solve still describe the flow set
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		if e.Now >= maxTime {
			return nil
		}
		anyActive, pendingFinite, finiteExists := false, false, false
		for _, f := range e.flows {
			if !math.IsInf(f.Remaining, 1) {
				finiteExists = true
			}
			if !f.Done && f.Remaining > 0 {
				anyActive = true
				if !math.IsInf(f.Remaining, 1) {
					pendingFinite = true
				}
			}
		}
		if !anyActive {
			return nil
		}
		// With finite flows present, completion of the last one ends the run
		// (open-ended observers don't extend it). A purely open-ended flow
		// set runs to maxTime — that's how steady-state bandwidth windows
		// are measured.
		if finiteExists && !pendingFinite {
			return nil
		}

		if !solved || !hasSteady || !sm.Steady(e.Now) {
			e.Model.Prepare(e.Now, e.flows)
			e.solver.Solve(e.flows, e.Model.Resources())
			solved = true
		}

		// Time to the next completion among finite flows.
		dt := maxTime - e.Now
		stalled := true
		for _, f := range e.flows {
			if f.Done || f.Remaining <= 0 {
				continue
			}
			if f.Rate > 0 {
				stalled = false
				if !math.IsInf(f.Remaining, 1) {
					if d := f.Remaining / f.Rate; d < dt {
						dt = d
					}
				}
			}
		}
		if stalled {
			// Zero-rate flows with a finite model horizon are a pause, not a
			// deadlock: an injected outage (capacity 0) ends at a scheduled
			// boundary, so idle across it and re-solve. Only an unbounded
			// stall is an error.
			h := e.Model.Horizon(e.Now, e.flows)
			if math.IsInf(h, 1) || h <= 0 {
				return ErrStalled
			}
			dt = math.Min(h, maxTime-e.Now)
			if dt < minStep {
				dt = minStep
			}
			e.Model.Advance(e.Now, dt, e.flows)
			e.Now += dt
			// A pause exists precisely because state is about to change at
			// the horizon; always re-solve after it.
			solved = false
			continue
		}
		if h := e.Model.Horizon(e.Now, e.flows); h < dt {
			dt = h
		}
		if dt < minStep {
			dt = minStep
		}

		completed := false
		for _, f := range e.flows {
			if f.Done || f.Remaining <= 0 {
				continue
			}
			moved := f.Rate * dt
			f.Moved += moved
			if !math.IsInf(f.Remaining, 1) {
				f.Remaining -= moved
				if f.Remaining <= 1e-6 { // sub-byte residue: done
					f.Remaining = 0
					f.Done = true
					f.FinishedAt = e.Now + dt
					completed = true
				}
			}
		}
		e.Model.Advance(e.Now, dt, e.flows)
		e.Now += dt
		if completed {
			// The active flow population changed; the allocation must be
			// recomputed even for a steady cost model.
			solved = false
			if e.StopOnCompletion {
				return nil
			}
		}
	}
}

// AggregateBandwidth returns total bytes moved by the given flows divided by
// elapsed time; a convenience for bandwidth experiments.
func AggregateBandwidth(flows []*Flow, elapsed float64) float64 {
	if elapsed <= 0 {
		return 0
	}
	var total float64
	for _, f := range flows {
		total += f.Moved
	}
	return total / elapsed
}

// StaticModel is a Model with fixed costs and capacities; useful for tests
// and for simple single-phase solves.
type StaticModel struct {
	Res []*Resource
}

// Prepare implements Model (costs are whatever the flows already carry).
func (m *StaticModel) Prepare(float64, []*Flow) {}

// Resources implements Model.
func (m *StaticModel) Resources() []*Resource { return m.Res }

// Horizon implements Model: no state changes.
func (m *StaticModel) Horizon(float64, []*Flow) float64 { return math.Inf(1) }

// Advance implements Model.
func (m *StaticModel) Advance(float64, float64, []*Flow) {}

// SortedUtilizations returns "name=util" strings sorted by descending
// utilization; a debugging aid used by the CLI's -verbose mode.
func SortedUtilizations(res []*Resource) []string {
	type ru struct {
		name string
		u    float64
	}
	rs := make([]ru, 0, len(res))
	for _, r := range res {
		rs = append(rs, ru{r.Name, r.Utilization()})
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].u > rs[j].u })
	out := make([]string, len(rs))
	for i, r := range rs {
		out[i] = fmt.Sprintf("%s=%.3f", r.name, r.u)
	}
	return out
}
