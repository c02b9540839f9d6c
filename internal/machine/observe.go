package machine

import (
	"fmt"

	"repro/internal/access"
	"repro/internal/cpu"
	"repro/internal/metrics"
	"repro/internal/topology"
)

// recorder holds pre-resolved metric handles for one machine, so the solver
// hot path (runModel.Advance) performs only atomic adds — no map lookups and
// no allocations. Counter names are documented in EXPERIMENTS.md ("Metrics");
// each maps to a hardware counter the paper's methodology reads (iMC channel
// counters, UPI link events, VTune's buffer and prefetch statistics).
type recorder struct {
	sockets  int
	channels int

	regionAllocs *metrics.Counter
	regionFrees  *metrics.Counter
	allocPMEM    *metrics.Counter
	allocDRAM    *metrics.Counter
	allocSSD     *metrics.Counter
	prefaultB    *metrics.Counter
	prefaultSec  *metrics.Counter
	faultInB     *metrics.Counter
	runCount     *metrics.Counter
	runSeconds   *metrics.Counter

	pmemReadApp    []*metrics.Counter // per socket
	pmemReadMedia  []*metrics.Counter
	pmemWriteApp   []*metrics.Counter
	pmemWriteMedia []*metrics.Counter
	pmemUtilPeak   []*metrics.Gauge
	chReadMedia    [][]*metrics.Counter // [socket][channel]
	chWriteMedia   [][]*metrics.Counter
	chUtilMean     [][]*metrics.Gauge

	dramRead     []*metrics.Counter
	dramWrite    []*metrics.Counter
	dramUtilPeak []*metrics.Gauge
	dirWrites    []*metrics.Counter // directory-update media writes per socket
	ssdBytes     *metrics.Counter

	upiData     [][]*metrics.Counter // [from][to], nil on the diagonal
	upiReq      [][]*metrics.Counter
	upiUtilPeak [][]*metrics.Gauge
	upiCross    *metrics.Counter
	upiColdB    *metrics.Counter
	upiWarmups  *metrics.Counter
	upiMarkWarm *metrics.Counter
	upiInval    *metrics.Counter

	xpbLineWrites  []*metrics.Counter
	xpbLineFlushes []*metrics.Counter
	xpbHitRate     []*metrics.Gauge
	rbufApp        []*metrics.Counter
	rbufMedia      []*metrics.Counter
	rbufHitRate    []*metrics.Gauge
	writeAmpMean   []*metrics.Gauge
	wearBytes      []*metrics.Gauge

	pfBytes    *metrics.Counter
	pfUseful   *metrics.Counter
	pfWasted   *metrics.Counter
	pfEffMean  *metrics.Gauge
	pinStreams []*metrics.Counter // indexed by cpu.PinPolicy
	pinBytes   []*metrics.Counter
	htShared   *metrics.Counter

	// Fault-injection observability (scraped as sim_fault_* by pmemd).
	faultActivations *metrics.Counter
	faultRecoveries  *metrics.Counter
	faultActive      *metrics.Gauge
	faultThrottleSec *metrics.Counter
	faultChanSec     *metrics.Counter
	faultXPBSec      *metrics.Counter
	faultUPISec      *metrics.Counter
	faultRewarm      *metrics.Counter
	faultScaleMin    *metrics.Gauge
}

// handles hands out one kind of recorder handle in the order layout asks
// for them. While a topology shape's names are built (naming), it records
// each formatted name and the number of grid and link rows, and hands out
// nils; binding a machine then slices the bound handles, and carves the rows
// from one preallocated backing, without formatting anything.
type handles[H any] struct {
	naming bool
	names  []string
	nrows  int
	h      []*H
	rows   [][]*H
}

// take hands out the next n handles; name(i) is the i-th one's name, and an
// empty name is a hole that binds to nil.
func (hs *handles[H]) take(n int, name func(i int) string) []*H {
	if hs.naming {
		for i := range n {
			hs.names = append(hs.names, name(i))
		}
		return make([]*H, n)
	}
	out := hs.h[:n:n]
	hs.h = hs.h[n:]
	return out
}

func (hs *handles[H]) one(name string) *H {
	return hs.take(1, func(int) string { return name })[0]
}

func (hs *handles[H]) perSocket(format string, sockets int) []*H {
	return hs.take(sockets, func(s int) string { return fmt.Sprintf(format, s) })
}

// takeRows hands out the outer slice of an n-row table.
func (hs *handles[H]) takeRows(n int) [][]*H {
	if hs.naming {
		hs.nrows += n
		return make([][]*H, n)
	}
	out := hs.rows[:n:n]
	hs.rows = hs.rows[n:]
	return out
}

// grid hands out one handle per [socket][channel].
func (hs *handles[H]) grid(format string, sockets, channels int) [][]*H {
	out := hs.takeRows(sockets)
	for s := range out {
		out[s] = hs.take(channels, func(c int) string { return fmt.Sprintf(format, s, c) })
	}
	return out
}

// links hands out one handle per [from][to] socket pair, nil on the
// diagonal, where no UPI link runs.
func (hs *handles[H]) links(format string, sockets int) [][]*H {
	out := hs.takeRows(sockets)
	for a := range out {
		out[a] = hs.take(sockets, func(b int) string {
			if a == b {
				return ""
			}
			return fmt.Sprintf(format, a, b)
		})
	}
	return out
}

// newRecorder binds a recorder of the shape sh to the registry.
func newRecorder(reg *metrics.Registry, sh *shape) *recorder {
	cs, gs := reg.Bind(sh.ix)
	r := layout(&handles[metrics.Counter]{h: cs, rows: make([][]*metrics.Counter, sh.crows)},
		&handles[metrics.Gauge]{h: gs, rows: make([][]*metrics.Gauge, sh.grows)}, sh.sockets, sh.channels)
	// A healthy machine never ticks the fault path; 1 (no derate) is the
	// meaningful resting value for the min-scale gauge, not 0.
	r.faultScaleMin.Set(1)
	return r
}

// layout builds a recorder whose handles come from c and g, in a fixed order.
func layout(c *handles[metrics.Counter], g *handles[metrics.Gauge], sockets, channels int) *recorder {
	r := &recorder{
		sockets:  sockets,
		channels: channels,

		regionAllocs: c.one("machine.region.allocs"),
		regionFrees:  c.one("machine.region.frees"),
		allocPMEM:    c.one("machine.region.alloc_bytes.pmem"),
		allocDRAM:    c.one("machine.region.alloc_bytes.dram"),
		allocSSD:     c.one("machine.region.alloc_bytes.ssd"),
		prefaultB:    c.one("machine.prefault.bytes"),
		prefaultSec:  c.one("machine.prefault.seconds"),
		faultInB:     c.one("machine.fault_in.bytes"),
		runCount:     c.one("machine.run.count"),
		runSeconds:   c.one("machine.run.virtual_seconds"),

		pmemReadApp:    c.perSocket("pmem.s%d.read.app_bytes", sockets),
		pmemReadMedia:  c.perSocket("pmem.s%d.read.media_bytes", sockets),
		pmemWriteApp:   c.perSocket("pmem.s%d.write.app_bytes", sockets),
		pmemWriteMedia: c.perSocket("pmem.s%d.write.media_bytes", sockets),
		pmemUtilPeak:   g.perSocket("pmem.s%d.util.peak", sockets),
		chReadMedia:    c.grid("pmem.s%d.ch%d.read_media_bytes", sockets, channels),
		chWriteMedia:   c.grid("pmem.s%d.ch%d.write_media_bytes", sockets, channels),
		chUtilMean:     g.grid("pmem.s%d.ch%d.util.mean", sockets, channels),

		dramRead:     c.perSocket("dram.s%d.read.bytes", sockets),
		dramWrite:    c.perSocket("dram.s%d.write.bytes", sockets),
		dramUtilPeak: g.perSocket("dram.s%d.util.peak", sockets),
		dirWrites:    c.perSocket("pmem.s%d.directory.write_media_bytes", sockets),
		ssdBytes:     c.one("ssd.bytes"),

		upiData:     c.links("upi.s%dto%d.data_bytes", sockets),
		upiReq:      c.links("upi.s%dto%d.req_bytes", sockets),
		upiUtilPeak: g.links("upi.s%dto%d.util.peak", sockets),
		upiCross:    c.one("upi.crossings"),
		upiColdB:    c.one("upi.cold_bytes"),
		upiWarmups:  c.one("upi.warmups"),
		upiMarkWarm: c.one("upi.mark_warm"),
		upiInval:    c.one("upi.invalidations"),

		xpbLineWrites:  c.perSocket("xpdimm.s%d.xpbuffer.line_writes", sockets),
		xpbLineFlushes: c.perSocket("xpdimm.s%d.xpbuffer.line_flushes", sockets),
		xpbHitRate:     g.perSocket("xpdimm.s%d.xpbuffer.hit_rate", sockets),
		rbufApp:        c.perSocket("xpdimm.s%d.readbuf.app_bytes", sockets),
		rbufMedia:      c.perSocket("xpdimm.s%d.readbuf.media_bytes", sockets),
		rbufHitRate:    g.perSocket("xpdimm.s%d.readbuf.hit_rate", sockets),
		writeAmpMean:   g.perSocket("xpdimm.s%d.write_amplification.mean", sockets),
		wearBytes:      g.perSocket("xpdimm.s%d.wear.media_bytes", sockets),

		pfBytes:   c.one("cpu.prefetch.bytes"),
		pfUseful:  c.one("cpu.prefetch.useful_bytes"),
		pfWasted:  c.one("cpu.prefetch.wasted_media_bytes"),
		pfEffMean: g.one("cpu.prefetch.efficiency.mean"),
		htShared:  c.one("cpu.ht_shared.streams"),

		faultActivations: c.one("fault.activations"),
		faultRecoveries:  c.one("fault.recoveries"),
		faultActive:      g.one("fault.active"),
		faultThrottleSec: c.one("fault.throttle.socket_seconds"),
		faultChanSec:     c.one("fault.channel_offline.socket_seconds"),
		faultXPBSec:      c.one("fault.xpbuffer.socket_seconds"),
		faultUPISec:      c.one("fault.upi_degraded.link_seconds"),
		faultRewarm:      c.one("fault.rewarm.invalidations"),
		faultScaleMin:    g.one("fault.media_scale.min"),
	}
	r.pinStreams = c.take(pinPolicies, func(p int) string { return "cpu.pin." + cpu.PinPolicy(p).String() + ".streams" })
	r.pinBytes = c.take(pinPolicies, func(p int) string { return "cpu.pin." + cpu.PinPolicy(p).String() + ".bytes" })
	return r
}

// pinPolicies is how many pin policies there are: cpu.PinCores, PinNUMA and
// PinNone, numbered from 0 (Stream.Validate rejects any other).
const pinPolicies = int(cpu.PinNone) + 1

// recordAlloc accounts a new region.
func (r *recorder) recordAlloc(class access.DeviceClass, size int64) {
	r.regionAllocs.Inc()
	switch class {
	case access.PMEM:
		r.allocPMEM.Add(float64(size))
	case access.DRAM:
		r.allocDRAM.Add(float64(size))
	case access.SSD:
		r.allocSSD.Add(float64(size))
	}
}

// finishRun sets the derived end-of-run gauges from the accumulated
// counters: buffer hit rates, mean write amplification, mean per-channel
// utilization, peak resource utilizations, and wear.
func (m *Machine) finishRun(rm *runModel, elapsed float64) {
	r := m.rec
	r.runCount.Inc()
	r.runSeconds.Add(elapsed)
	seconds := r.runSeconds.Value()

	chReadCap := m.cfg.PMEM.MediaReadBytesPerSec
	chWriteCap := m.cfg.PMEM.MediaWriteBytesPerSec
	for s := 0; s < r.sockets; s++ {
		if flushes := r.xpbLineFlushes[s].Value(); flushes > 0 {
			r.xpbHitRate[s].Set(r.xpbLineWrites[s].Value() / flushes)
		}
		if media := r.rbufMedia[s].Value(); media > 0 {
			r.rbufHitRate[s].Set(r.rbufApp[s].Value() / media)
		}
		if app := r.pmemWriteApp[s].Value(); app > 0 {
			r.writeAmpMean[s].Set(r.pmemWriteMedia[s].Value() / app)
		}
		r.wearBytes[s].SetMax(m.wear[s].MediaBytesWritten())
		r.pmemUtilPeak[s].SetMax(rm.peakFor(rm.pmemMedia[s]))
		r.dramUtilPeak[s].SetMax(rm.peakFor(rm.dramMedia[s]))
		if seconds > 0 {
			for c := 0; c < r.channels; c++ {
				u := r.chReadMedia[s][c].Value()/chReadCap + r.chWriteMedia[s][c].Value()/chWriteCap
				r.chUtilMean[s][c].Set(u / seconds)
			}
		}
	}
	if pf := r.pfBytes.Value(); pf > 0 {
		r.pfEffMean.Set(r.pfUseful.Value() / pf)
	}
	for a := 0; a < r.sockets; a++ {
		for b := 0; b < r.sockets; b++ {
			if a != b {
				r.upiUtilPeak[a][b].SetMax(rm.peakFor(rm.upiDirs[[2]int{a, b}]))
			}
		}
	}
}

// recordChannelMedia spreads a stream's media traffic over the channels it
// engages. The interleave layout rotates stripes round-robin across the
// socket's channels, so a stream engaging nd of them sweeps the whole set
// over time; the per-socket cursor reproduces that rotation deterministically.
func (m *Machine) recordChannelMedia(socket topology.SocketID, dir access.Direction, engaged int, mediaBytes float64) {
	r := m.rec
	d := r.channels
	if engaged < 1 {
		engaged = 1
	}
	if engaged > d {
		engaged = d
	}
	counters := r.chReadMedia[socket]
	if dir == access.Write {
		counters = r.chWriteMedia[socket]
	}
	per := mediaBytes / float64(engaged)
	start := m.chCursor[socket]
	for k := 0; k < engaged; k++ {
		counters[(start+k)%d].Add(per)
	}
	m.chCursor[socket] = (start + engaged) % d
}
