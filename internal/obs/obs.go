// Package obs is the opt-in observability layer of the simulator:
// per-socket, per-cache and per-link time series plus an optional
// Chrome-trace event ring, recorded while a core.System runs and
// flushed to CSV/JSON afterwards.
//
// The design constraint that shapes everything here is inertness: a
// simulation with observation enabled must stay byte-identical to one
// without it. Every probe is therefore read-only — series values are
// either direct reads of component state (resident warps, MSHR table
// sizes, server backlog) or deltas of lifetime counters the model
// already maintains (issued instructions, cache hits, link and DRAM
// bytes) — and sampling rides one sim.Ticker per socket, whose tick
// events interleave with model events without mutating any model
// state. All buffers are preallocated from arch.ObsSpec capacities, so
// the per-tick sample path and the trace append path run at zero
// allocations (gated in CI by TestSamplingAllocFree); full rings
// overwrite (series) or drop (trace) and report the loss at flush time
// instead of growing.
//
// See docs/OBSERVABILITY.md for the series schema and the Perfetto
// workflow.
package obs

import (
	"fmt"

	"repro/internal/arch"
	"repro/internal/gpu"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/xlink"
)

// Capacity and period defaults applied to zero ObsSpec fields.
const (
	DefaultSamplePeriod   = 5000 // the paper's policy sampling window
	DefaultMaxSamples     = 4096
	DefaultMaxTraceEvents = 1 << 16
)

// Energy constants for the power series, Joules per bit moved.
// InterconnectEnergyPerBit mirrors core's Section 6 estimate (10 pJ/b
// for link plus switch); DRAMEnergyPerBit is the commonly cited ~3.9
// pJ/b HBM2 access energy. Both exist only for reporting — no
// simulation decision reads them.
const (
	InterconnectEnergyPerBit = 10e-12
	DRAMEnergyPerBit         = 3.9e-12
)

// Point is one recorded sample.
type Point struct {
	At    sim.Time
	Value float64
}

// Series is one preallocated metric ring. When the ring fills, new
// samples overwrite the oldest (the series keeps the most recent
// MaxSamples window) and Dropped counts the overwritten points.
type Series struct {
	Name   string // e.g. "socket0/sm_occupancy", "link0:s0-x0/egress_util"
	Socket int    // owning socket, -1 for fabric-level series

	buf     []Point
	head    int // oldest entry once the ring has wrapped
	dropped uint64
}

func (s *Series) record(at sim.Time, v float64) {
	if len(s.buf) < cap(s.buf) {
		s.buf = append(s.buf, Point{At: at, Value: v})
		return
	}
	s.buf[s.head] = Point{At: at, Value: v}
	s.head++
	if s.head == len(s.buf) {
		s.head = 0
	}
	s.dropped++
}

// Len reports the number of retained points.
func (s *Series) Len() int { return len(s.buf) }

// At returns retained point i in time order (0 is the oldest retained).
func (s *Series) At(i int) Point { return s.buf[(s.head+i)%len(s.buf)] }

// Dropped reports how many samples were overwritten by ring wraparound.
func (s *Series) Dropped() uint64 { return s.dropped }

// Collector owns every series and the trace ring for one core.System
// run. Build it with New, register components with AddSocket/AddFabric
// (core does this during system construction), Start/Stop it around the
// run, then flush with the Write* methods.
type Collector struct {
	spec   arch.ObsSpec // normalized: zero capacities replaced by defaults
	period sim.Time

	series  []*Series
	trace   *Trace
	sockets []*socketProbe
	fabric  *fabricProbe
	tickers []*sim.Ticker
	nProcs  int // trace pid space: sockets + 1 runtime track
}

// New builds a collector for spec (zero capacities take the package
// defaults). The trace ring exists only when spec.Trace is set; series
// probes and tickers only when spec.Series is.
func New(spec arch.ObsSpec) *Collector {
	if spec.SamplePeriod <= 0 {
		spec.SamplePeriod = DefaultSamplePeriod
	}
	if spec.MaxSamples <= 0 {
		spec.MaxSamples = DefaultMaxSamples
	}
	if spec.MaxTraceEvents <= 0 {
		spec.MaxTraceEvents = DefaultMaxTraceEvents
	}
	c := &Collector{spec: spec, period: sim.Time(spec.SamplePeriod)}
	if spec.Trace {
		c.trace = newTrace(spec.MaxTraceEvents)
	}
	return c
}

// Spec reports the normalized spec in effect.
func (c *Collector) Spec() arch.ObsSpec { return c.spec }

// Series returns every registered series in registration order.
func (c *Collector) Series() []*Series { return c.series }

// LinkUtil returns physical link i's egress_util and ingress_util
// series. It panics unless the collector samples a fabric.
func (c *Collector) LinkUtil(i int) (egress, ingress *Series) {
	lp := &c.fabric.links[i]
	return lp.egUtil, lp.inUtil
}

// Trace returns the event ring, nil unless the spec requested tracing.
func (c *Collector) Trace() *Trace { return c.trace }

func (c *Collector) newSeries(name string, socket int) *Series {
	s := &Series{Name: name, Socket: socket, buf: make([]Point, 0, c.spec.MaxSamples)}
	c.series = append(c.series, s)
	return s
}

// AddSocket registers the series probe for one socket. eng must be the
// engine the socket's events run on, so the sampling ticker interleaves
// deterministically; cfg is the socket's own configuration (topology
// overrides applied).
func (c *Collector) AddSocket(eng *sim.Engine, cfg arch.Config, sock *gpu.Socket) {
	if c.nProcs <= int(sock.ID())+1 {
		c.nProcs = int(sock.ID()) + 2 // + the runtime track
	}
	if !c.spec.Series {
		return
	}
	id := int(sock.ID())
	p := &socketProbe{sock: sock, cfg: cfg, eng: eng, period: c.period}
	p.occ = c.newSeries(fmt.Sprintf("socket%d/sm_occupancy", id), id)
	p.ready = c.newSeries(fmt.Sprintf("socket%d/warp_ready_frac", id), id)
	p.waitComp = c.newSeries(fmt.Sprintf("socket%d/warp_wait_compute_frac", id), id)
	p.waitMem = c.newSeries(fmt.Sprintf("socket%d/warp_wait_mem_frac", id), id)
	p.ipc = c.newSeries(fmt.Sprintf("socket%d/ipc", id), id)
	p.l1Hit = c.newSeries(fmt.Sprintf("socket%d/l1_hit_rate", id), id)
	p.l2LocalHit = c.newSeries(fmt.Sprintf("socket%d/l2_local_hit_rate", id), id)
	p.l2RemoteHit = c.newSeries(fmt.Sprintf("socket%d/l2_remote_hit_rate", id), id)
	p.mshr = c.newSeries(fmt.Sprintf("socket%d/mshr_pending", id), id)
	p.dramBW = c.newSeries(fmt.Sprintf("socket%d/dram_bw_util", id), id)
	p.dramPower = c.newSeries(fmt.Sprintf("socket%d/dram_power_w", id), id)
	c.sockets = append(c.sockets, p)
}

// AddFabric registers the per-physical-link probe. eng must be the
// fabric's engine.
func (c *Collector) AddFabric(eng *sim.Engine, fab *xlink.Fabric) {
	if !c.spec.Series || fab == nil {
		return
	}
	p := &fabricProbe{eng: eng, period: c.period}
	for i := 0; i < fab.NumLinks(); i++ {
		l := fab.LinkAt(i)
		lp := linkProbe{link: l}
		lp.egUtil = c.newSeries(fmt.Sprintf("link%d:%s/egress_util", i, l.Name()), -1)
		lp.inUtil = c.newSeries(fmt.Sprintf("link%d:%s/ingress_util", i, l.Name()), -1)
		lp.backlog = c.newSeries(fmt.Sprintf("link%d:%s/backlog_cycles", i, l.Name()), -1)
		lp.power = c.newSeries(fmt.Sprintf("link%d:%s/power_w", i, l.Name()), -1)
		p.links = append(p.links, lp)
	}
	c.fabric = p
}

// Start arms one sampling ticker per registered socket plus one for
// the fabric. Tick events are read-only: they interleave with model
// events but never change them, so the simulated schedule — and every
// result — is identical with sampling on or off.
func (c *Collector) Start() {
	if !c.spec.Series {
		return
	}
	for _, p := range c.sockets {
		t := sim.NewTicker(p.eng, c.period, p.sample)
		c.tickers = append(c.tickers, t)
		t.Start()
	}
	if c.fabric != nil {
		t := sim.NewTicker(c.fabric.eng, c.period, c.fabric.sample)
		c.tickers = append(c.tickers, t)
		t.Start()
	}
}

// Stop halts every sampling ticker (their already-queued ticks fire as
// no-ops, like every policy ticker) so the engine can drain.
func (c *Collector) Stop() {
	for _, t := range c.tickers {
		t.Stop()
	}
}

// SampleAll runs one sample round over every probe outside any ticker:
// the per-tick path as a callable, for the alloc gate and unit tests.
func (c *Collector) SampleAll(now sim.Time) {
	for _, p := range c.sockets {
		p.sample(now)
	}
	if c.fabric != nil {
		c.fabric.sample(now)
	}
}

// socketProbe samples one socket: occupancy and stall breakdown from
// the SMs, windowed IPC and hit rates as deltas of lifetime counters,
// MSHR pressure from the pending-table sizes, DRAM bandwidth and power
// from the DRAM byte meter.
type socketProbe struct {
	sock   *gpu.Socket
	cfg    arch.Config
	eng    *sim.Engine
	period sim.Time

	occ, ready, waitComp, waitMem  *Series
	ipc                            *Series
	l1Hit, l2LocalHit, l2RemoteHit *Series
	mshr                           *Series
	dramBW, dramPower              *Series

	prevIssued              uint64
	prevL1Hits, prevL1Acc   uint64
	prevL2LHits, prevL2LAcc uint64
	prevL2RHits, prevL2RAcc uint64
	prevDRAM                uint64
}

// rate is hits/accesses over a window, 0 for an idle window.
func rate(hits, accesses uint64) float64 {
	if accesses == 0 {
		return 0
	}
	return float64(hits) / float64(accesses)
}

func (p *socketProbe) sample(now sim.Time) {
	var warps, ready, waitComp, waitMem int
	var issued, l1Hits, l1Acc uint64
	for i, sm := range p.sock.SMs {
		warps += sm.ResidentWarps()
		st := sm.DebugStates()
		ready += st[0]
		waitComp += st[1]
		waitMem += st[2]
		issued += sm.Issued.Value()
		l1 := p.sock.L1(i)
		l1Hits += l1.Hit[mem.ClassLocal].Hits.Value() + l1.Hit[mem.ClassRemote].Hits.Value()
		l1Acc += l1.Hit[mem.ClassLocal].Accesses() + l1.Hit[mem.ClassRemote].Accesses()
	}
	p.occ.record(now, float64(warps)/float64(len(p.sock.SMs)*p.cfg.MaxWarpsPerSM))
	denom := float64(warps)
	if denom == 0 {
		denom = 1
	}
	p.ready.record(now, float64(ready)/denom)
	p.waitComp.record(now, float64(waitComp)/denom)
	p.waitMem.record(now, float64(waitMem)/denom)
	p.ipc.record(now, float64(issued-p.prevIssued)/float64(p.period))
	p.prevIssued = issued

	p.l1Hit.record(now, rate(l1Hits-p.prevL1Hits, l1Acc-p.prevL1Acc))
	p.prevL1Hits, p.prevL1Acc = l1Hits, l1Acc

	l2 := p.sock.L2()
	lh := l2.Hit[mem.ClassLocal].Hits.Value()
	la := l2.Hit[mem.ClassLocal].Accesses()
	rh := l2.Hit[mem.ClassRemote].Hits.Value()
	ra := l2.Hit[mem.ClassRemote].Accesses()
	p.l2LocalHit.record(now, rate(lh-p.prevL2LHits, la-p.prevL2LAcc))
	p.l2RemoteHit.record(now, rate(rh-p.prevL2RHits, ra-p.prevL2RAcc))
	p.prevL2LHits, p.prevL2LAcc = lh, la
	p.prevL2RHits, p.prevL2RAcc = rh, ra

	l1p, l2p, rmp := p.sock.DebugPending()
	p.mshr.record(now, float64(l1p+l2p+rmp))

	db := p.sock.DRAM().Bytes.Total()
	delta := db - p.prevDRAM
	p.prevDRAM = db
	p.dramBW.record(now, float64(delta)/(p.cfg.DRAMBandwidth*float64(p.period)))
	p.dramPower.record(now, float64(delta)*8*DRAMEnergyPerBit/(float64(p.period)*1e-9))
}

// fabricProbe samples every physical link: per-direction utilization
// as deltas of the lifetime byte counters against the current lane
// bandwidth, queue depth as the serialization backlog in cycles, and
// communication power at the Section 6 energy per bit.
type fabricProbe struct {
	eng    *sim.Engine
	period sim.Time
	links  []linkProbe
}

type linkProbe struct {
	link                           *xlink.Link
	egUtil, inUtil, backlog, power *Series
	prevEg, prevIn                 uint64
}

func (p *fabricProbe) sample(now sim.Time) {
	for i := range p.links {
		lp := &p.links[i]
		eg := lp.link.Sent[xlink.Egress].Value()
		in := lp.link.Sent[xlink.Ingress].Value()
		dEg, dIn := eg-lp.prevEg, in-lp.prevIn
		lp.prevEg, lp.prevIn = eg, in
		lp.egUtil.record(now, float64(dEg)/(lp.link.Bandwidth(xlink.Egress)*float64(p.period)))
		lp.inUtil.record(now, float64(dIn)/(lp.link.Bandwidth(xlink.Ingress)*float64(p.period)))
		bk := lp.link.Backlog(xlink.Egress, now)
		if b := lp.link.Backlog(xlink.Ingress, now); b > bk {
			bk = b
		}
		lp.backlog.record(now, float64(bk))
		lp.power.record(now, float64(dEg+dIn)*8*InterconnectEnergyPerBit/(float64(p.period)*1e-9))
	}
}
