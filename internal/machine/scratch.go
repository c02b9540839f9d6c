package machine

import (
	"sync"
	"sync/atomic"

	"repro/internal/fluid"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// shape is what every machine of one topology shape (sockets x channels)
// shares: the recorder's frozen metric names and the pool that lends run
// scratch between machines.
type shape struct {
	sockets, channels int
	ix                *metrics.Index
	crows, grows      int // grid and link rows the recorder's layout hands out
	scratch           sync.Pool
}

var (
	shapesMu sync.Mutex
	shapes   = map[[2]int]*shape{} // {sockets, channels}
)

// shapeOf returns the topology's shape, naming its metrics on first use.
func shapeOf(topo *topology.Topology) *shape {
	key := [2]int{topo.Sockets(), topo.ChannelsPerSocket()}
	shapesMu.Lock()
	defer shapesMu.Unlock()
	sh := shapes[key]
	if sh == nil {
		c, g := &handles[metrics.Counter]{naming: true}, &handles[metrics.Gauge]{naming: true}
		layout(c, g, key[0], key[1])
		sh = &shape{sockets: key[0], channels: key[1], ix: metrics.NewIndex(c.names, g.names),
			crows: c.nrows, grows: g.nrows}
		shapes[key] = sh
	}
	return sh
}

// runScratch is the working set of a run: the run model and the fluid engine
// over it. Building one is most of what a fresh machine's first run costs,
// so it is lent across machines: at the end of every run it goes back to its
// shape's pool, where the next run of any machine of that shape may take it
// (runModel.adopt then leaves it exactly as newRunModel would build it).
//
// The machine that used it last keeps a claim, its lease. If no other
// machine has taken the scratch since, that machine's next run reuses it
// untouched, dynamic resources included, which keeps a warmed machine's runs
// allocation-free. The pool alone cannot carry that warm path: a sync.Pool
// may drop any Put (under the race detector a quarter of them, on purpose)
// and empties across garbage collections.
type runScratch struct {
	rm  *runModel
	eng *fluid.Engine
	// state packs the lease that may reclaim the scratch (state >> 2) with
	// scratchBusy (a run is using it) and scratchPooled (it was Put and not
	// yet taken out again, so it is in the pool at most once). A scratch the
	// pool dropped keeps scratchPooled: it stays with its machine's claim
	// and is not lent again.
	state atomic.Uint64
}

const (
	scratchBusy   = 1
	scratchPooled = 2
)

// leases issues a process-unique lease per scratch hand-over.
var leases atomic.Uint64

// acquireScratch readies run scratch for a run of m over streams: m's own
// scratch if its claim still holds, else one lent from the pool, else a new
// one.
func (m *Machine) acquireScratch(streams []*Stream) *runScratch {
	if sc := m.scr; sc != nil {
		if old := sc.state.Load(); old>>2 == m.lease && old&scratchBusy == 0 &&
			sc.state.CompareAndSwap(old, old|scratchBusy) {
			sc.rm.m = m
			sc.rm.reset(streams)
			sc.eng.Reset()
			return sc
		}
		m.scr = nil
	}
	lease := leases.Add(1)
	for m.scr == nil {
		sc, _ := m.shape.scratch.Get().(*runScratch)
		if sc == nil {
			rm := newRunModel(m, streams)
			sc = &runScratch{rm: rm, eng: fluid.NewEngine(rm)}
			sc.state.Store(lease<<2 | scratchBusy)
			m.scr = sc
		} else if sc.take(lease) {
			sc.rm.adopt(m, streams)
			sc.eng.Reset()
			m.scr = sc
		}
	}
	m.lease = lease
	return m.scr
}

// take moves a scratch just got from the pool out of it and, unless its
// owner has reclaimed it for a run in progress, makes it lease's.
func (sc *runScratch) take(lease uint64) bool {
	for {
		old := sc.state.Load()
		nw := old &^ scratchPooled
		if old&scratchBusy == 0 {
			nw = lease<<2 | scratchBusy
		}
		if sc.state.CompareAndSwap(old, nw) {
			return old&scratchBusy == 0
		}
	}
}

// releaseScratch ends m's run on its scratch: it drops every pointer to m,
// its streams and its trace, and makes the scratch available to other
// machines while m keeps its claim.
func (m *Machine) releaseScratch() {
	sc := m.scr
	sc.rm.detach()
	for {
		old := sc.state.Load()
		if sc.state.CompareAndSwap(old, old&^scratchBusy|scratchPooled) {
			if old&scratchPooled == 0 {
				m.shape.scratch.Put(sc)
			}
			return
		}
	}
}
