package aware

import (
	"fmt"
)

// DegradeReport describes how the engine re-planned its fact-scan placement
// around the machine's fault plan, so callers can report achieved-under-fault
// bandwidth against the healthy layout.
type DegradeReport struct {
	// Degraded is true when the fault plan actually unbalances the sockets
	// (equal shares mean the healthy plan was already optimal).
	Degraded bool `json:"degraded"`
	// SocketScale is each active socket's worst-case media capacity factor
	// over the plan (1.0 = healthy).
	SocketScale []float64 `json:"socket_scale"`
	// Shares is the resulting fraction of the fact scan routed to each
	// active socket (sums to 1).
	Shares []float64 `json:"shares"`
}

// SetPlacementShares overrides the fact-scan split across the active
// sockets. nil restores the default equal split. Shares must be
// non-negative with a positive sum; they are normalized in place.
func (e *Engine) SetPlacementShares(shares []float64) error {
	if shares == nil {
		e.shares = nil
		return nil
	}
	if len(shares) != e.opt.Sockets {
		return fmt.Errorf("aware: %d shares for %d active sockets", len(shares), e.opt.Sockets)
	}
	sum := 0.0
	for _, v := range shares {
		if v < 0 {
			return fmt.Errorf("aware: negative placement share %g", v)
		}
		sum += v
	}
	if sum <= 0 {
		return fmt.Errorf("aware: placement shares sum to zero")
	}
	norm := make([]float64, len(shares))
	for i, v := range shares {
		norm[i] = v / sum
	}
	e.shares = norm
	return nil
}

// ReplanForFaults reads the machine's fault plan and reweights the fact-scan
// partition shares by each socket's worst-case capacity: a socket that will
// lose channels or throttle mid-query gets proportionally less of the scan,
// so the healthy socket finishes the extra work instead of idling while the
// degraded one trails (graceful degradation instead of a hard stall on the
// slowest partition).
func (e *Engine) ReplanForFaults() (DegradeReport, error) {
	all := e.m.FaultSocketScales()
	rep := DegradeReport{SocketScale: all[:e.opt.Sockets]}
	sum := 0.0
	for _, v := range rep.SocketScale {
		sum += v
	}
	if sum <= 0 {
		// Every active socket is fully out at some point; an equal split is
		// as good as any.
		return rep, e.SetPlacementShares(nil)
	}
	shares := make([]float64, len(rep.SocketScale))
	for i, v := range rep.SocketScale {
		shares[i] = v / sum
		if v != rep.SocketScale[0] {
			rep.Degraded = true
		}
	}
	if !rep.Degraded {
		// Uniform degradation (or none): keep the default split.
		return rep, e.SetPlacementShares(nil)
	}
	if err := e.SetPlacementShares(shares); err != nil {
		return rep, err
	}
	rep.Shares = e.shares
	return rep, nil
}

// shareOf returns the fraction of the fact scan placed on active socket s.
func (e *Engine) shareOf(s int) float64 {
	if e.shares == nil {
		return 1 / float64(e.opt.Sockets)
	}
	return e.shares[s]
}

// LastFactBandwidth returns the aggregate simulated bandwidth of the most
// recent fact phase — the "achieved" side of an achieved-vs-healthy report.
func (e *Engine) LastFactBandwidth() float64 { return e.sim.Last.Bandwidth }
