// Package upi models the Intel Ultra Path Interconnect between the two
// sockets: per-direction capacity with metadata overhead (Section 3.5: "the
// UPI achieves ~40 GB/s per direction but about 25% of this is required for
// metadata"), and the directory-remapping warm-up behaviour of first-time
// cross-socket access (Section 3.4: the first far read of a memory region
// runs at ~8 GB/s; once address-space mappings are reassigned, subsequent
// runs reach ~33 GB/s).
package upi

import "math"

// Params holds the UPI model constants.
type Params struct {
	// RawBytesPerSecPerDir is the raw link bandwidth per direction (40 GB/s).
	RawBytesPerSecPerDir float64
	// DataCostFactor is the link bytes consumed on the data-carrying
	// direction per application byte (payload + headers + the metadata share
	// that travels with the data). 1.2 yields the ~33 GB/s warm far-read
	// ceiling of Figure 5.
	DataCostFactor float64
	// RequestCostFactor is the link bytes consumed on the opposite direction
	// (requests, acknowledgements, snoops) per application byte. Together
	// with DataCostFactor it reproduces the ~50 GB/s two-socket far-read
	// plateau of Figure 6a.
	RequestCostFactor float64
	// ColdReadCapBytesPerSec is the aggregate bandwidth of first-touch far
	// reads while the coherency directory is being remapped (~8 GB/s,
	// Figure 5 "Far").
	ColdReadCapBytesPerSec float64
	// ColdRefThreads and ColdThreadExponent shape the cold cap's decline
	// with thread count: the paper observes the optimal far thread count
	// shifting from 18 to 4, with more threads making the first run worse.
	ColdRefThreads     float64
	ColdThreadExponent float64
}

// DefaultParams returns the calibrated UPI model for the paper's platform.
func DefaultParams() Params {
	return Params{
		RawBytesPerSecPerDir:   40e9,
		DataCostFactor:         1.2,
		RequestCostFactor:      0.35,
		ColdReadCapBytesPerSec: 8e9,
		ColdRefThreads:         4,
		ColdThreadExponent:     0.25,
	}
}

// ColdCap returns the aggregate bandwidth available to cold (first-touch)
// far reads when `threads` threads contend for the directory remapping.
func (p Params) ColdCap(threads int) float64 {
	t := float64(threads)
	if t < p.ColdRefThreads {
		t = p.ColdRefThreads
	}
	return p.ColdReadCapBytesPerSec * math.Pow(p.ColdRefThreads/t, p.ColdThreadExponent)
}

// WarmFarReadCap returns the per-flow-group ceiling for warm far reads: the
// data direction of the link divided by the data cost factor.
func (p Params) WarmFarReadCap() float64 {
	return p.RawBytesPerSecPerDir / p.DataCostFactor
}

// Key identifies a warmth state: one memory region as seen from one
// accessing socket.
type Key struct {
	Region int // machine-assigned region ID
	Socket int // the *accessing* socket
}

// Warmth tracks which (region, socket) pairs have completed their cold
// first pass. A region becomes warm for a socket once that socket has
// far-read the region's full extent (every first-touch triggers a directory
// remap, so the whole first run is cold; the second run is warm), or when
// explicitly marked (the paper's single-thread pre-read trick). The zero
// Warmth is empty and ready to use; its maps are made on first write.
type Warmth struct {
	progress map[Key]float64
	warm     map[Key]bool
}

// IsWarm reports whether the pair has completed its cold pass.
func (w *Warmth) IsWarm(k Key) bool { return w.warm[k] }

// Record adds cold far-read progress; once cumulative bytes reach
// regionBytes the pair becomes warm.
func (w *Warmth) Record(k Key, bytes float64, regionBytes int64) {
	if w.warm[k] || bytes <= 0 {
		return
	}
	if w.progress == nil {
		w.progress = make(map[Key]float64)
	}
	w.progress[k] += bytes
	if w.progress[k] >= float64(regionBytes) {
		w.MarkWarm(k)
	}
}

// RemainingCold returns how many cold bytes are left before the pair warms.
func (w *Warmth) RemainingCold(k Key, regionBytes int64) float64 {
	if w.warm[k] {
		return 0
	}
	rem := float64(regionBytes) - w.progress[k]
	if rem < 0 {
		return 0
	}
	return rem
}

// MarkWarm forces the pair warm (e.g., after a deliberate pre-read, or when
// constructing an already-touched data set).
func (w *Warmth) MarkWarm(k Key) {
	if w.warm == nil {
		w.warm = make(map[Key]bool)
	}
	w.warm[k] = true
}

// Invalidate resets a pair to cold (the mapping was reassigned to the other
// socket: "if access to the same memory regions is constantly switching
// between sockets, constant remapping is required", Section 3.4).
func (w *Warmth) Invalidate(k Key) {
	delete(w.warm, k)
	delete(w.progress, k)
}
