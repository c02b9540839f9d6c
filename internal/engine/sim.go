package engine

import (
	"repro/internal/arena"
	"repro/internal/cpu"
	"repro/internal/machine"
	"repro/internal/topology"
)

// Memo caches a pure function of its key: Get builds a value on first use
// and returns the cached one after. The engines memoize their thread
// placements and stream labels this way, so a warmed query run builds no
// strings or placement slices.
type Memo[K comparable, V any] struct {
	build func(K) V
	m     map[K]V
}

// NewMemo returns an empty memo over build.
func NewMemo[K comparable, V any](build func(K) V) Memo[K, V] {
	return Memo[K, V]{build: build, m: map[K]V{}}
}

// Get returns build(k), computing it once.
func (c *Memo[K, V]) Get(k K) V {
	if v, ok := c.m[k]; ok {
		return v
	}
	v := c.build(k)
	c.m[k] = v
	return v
}

type placeKey struct {
	pol  cpu.PinPolicy
	sock topology.SocketID
	n    int
}

// Sim is one engine's simulation scratch on its machine. An engine's runs
// are serialized (a machine simulates one batch at a time), so stream
// descriptors come from one recycled arena and thread placements are
// memoized: a warmed query run allocates no per-stream garbage.
type Sim struct {
	m      *machine.Machine
	arena  *arena.Arena[machine.Stream]
	batch  []*machine.Stream
	places Memo[placeKey, []cpu.Placement]
	// Last is the machine result of the most recent non-empty Run.
	Last machine.RunResult
}

// NewSim returns an empty scratch charging m.
func NewSim(m *machine.Machine) *Sim {
	return &Sim{m: m, arena: arena.New[machine.Stream](64),
		places: NewMemo(func(k placeKey) []cpu.Placement {
			return cpu.AssignThreads(m.Topology(), k.pol, k.sock, k.n)
		})}
}

// Placements is cpu.AssignThreads on the engine's machine, memoized by
// (policy, socket, n).
func (s *Sim) Placements(pol cpu.PinPolicy, sock topology.SocketID, n int) []cpu.Placement {
	return s.places.Get(placeKey{pol, sock, n})
}

// Reset starts a new batch, recycling the previous batch's streams.
func (s *Sim) Reset() {
	s.arena.Reset()
	s.batch = s.batch[:0]
}

// Add appends st to the batch (a copy in the arena).
func (s *Sim) Add(st machine.Stream) {
	p := s.arena.Alloc()
	*p = st
	s.batch = append(s.batch, p)
}

// Append adds streams the caller owns to the batch.
func (s *Sim) Append(streams ...*machine.Stream) {
	s.batch = append(s.batch, streams...)
}

// Run charges the batch to the machine and returns its elapsed virtual
// seconds. An empty batch costs nothing and leaves Last alone.
func (s *Sim) Run() (float64, error) {
	if len(s.batch) == 0 {
		return 0, nil
	}
	res, err := s.m.Run(s.batch)
	if err != nil {
		return 0, err
	}
	s.Last = res
	return res.Elapsed, nil
}
