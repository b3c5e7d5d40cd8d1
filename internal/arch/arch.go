// Package arch holds the architectural vocabulary shared by every
// subsystem of the NUMA GPU model: addresses, cache-line and page
// geometry, and the system configuration with the paper's parameters
// (Milic et al., MICRO 2017, Table 1).
package arch

import "repro/internal/topo"

// Addr is a byte address in the single unified virtual address space
// that spans all GPU sockets (the paper assumes NVIDIA UVA).
type Addr uint64

// Line geometry. Both L1 and L2 use 128-byte lines (Table 1).
const (
	LineSize  = 128
	LineShift = 7
)

// Page geometry for the UVM-style page placement runtime. 4KB pages,
// the CUDA UVM migration granularity: fine enough that small shared
// tables distribute across sockets rather than landing wholesale on
// whichever socket touches them first.
const (
	PageSize  = 4 << 10
	PageShift = 12
)

// LineID identifies a cache line (Addr >> LineShift).
type LineID uint64

// PageID identifies a page (Addr >> PageShift).
type PageID uint64

// LineOf returns the cache line containing a.
func LineOf(a Addr) LineID { return LineID(a >> LineShift) }

// PageOf returns the page containing a.
func PageOf(a Addr) PageID { return PageID(a >> PageShift) }

// LineAddr returns the first byte address of line l.
func (l LineID) Addr() Addr { return Addr(l) << LineShift }

// PageOfLine returns the page containing line l.
func PageOfLine(l LineID) PageID { return PageID(l >> (PageShift - LineShift)) }

// SocketID identifies a GPU socket within the system. The monolithic
// (single larger GPU) configurations use socket 0 only.
type SocketID int

// CTASched selects how the runtime distributes CTAs over sockets
// (Section 3 of the paper).
type CTASched int

const (
	// SchedFineGrain mimics single-GPU fine-grained dynamic assignment:
	// CTA i runs on socket i mod N. It balances load but destroys
	// inter-CTA locality ("traditional" in Figure 3).
	SchedFineGrain CTASched = iota
	// SchedBlock decomposes a kernel into N contiguous CTA blocks, one
	// per socket ("locality-optimized" in Figure 3).
	SchedBlock
)

func (s CTASched) String() string {
	switch s {
	case SchedFineGrain:
		return "fine-grain"
	case SchedBlock:
		return "contiguous-block"
	}
	return "unknown-sched"
}

// MemPlacement selects the page placement policy (Section 3).
type MemPlacement int

const (
	// PlaceFineInterleave interleaves memory across sockets at 256B
	// granularity, the single-GPU channel-interleaving policy extended
	// across sockets. 75% of accesses become remote on 4 sockets.
	PlaceFineInterleave MemPlacement = iota
	// PlacePageInterleave round-robins whole pages across sockets
	// (Linux-interleave style).
	PlacePageInterleave
	// PlaceFirstTouch maps a page to the socket that first touches it
	// (UVM on-demand migration from system memory).
	PlaceFirstTouch
)

func (p MemPlacement) String() string {
	switch p {
	case PlaceFineInterleave:
		return "fine-interleave"
	case PlacePageInterleave:
		return "page-interleave"
	case PlaceFirstTouch:
		return "first-touch"
	}
	return "unknown-placement"
}

// FineInterleaveGranularity is the sub-page interleaving unit used by
// PlaceFineInterleave (two cache lines, similar to a DRAM burst group).
const FineInterleaveGranularity = 256

// CacheMode selects the L2 organization from Figure 7 of the paper.
type CacheMode int

const (
	// CacheMemSideLocal is Figure 7(a): memory-side L2 caching local
	// data only; remote requests bypass the local L2 entirely.
	CacheMemSideLocal CacheMode = iota
	// CacheStaticPartition is Figure 7(b): half the L2 is a GPU-side
	// coherent remote cache (R$), half remains memory-side local.
	CacheStaticPartition
	// CacheSharedCoherent is Figure 7(c): the whole L2 becomes GPU-side
	// SW-coherent and local/remote data contend freely for capacity.
	CacheSharedCoherent
	// CacheNUMAAware is Figure 7(d): GPU-side coherent L1+L2 with
	// dynamic way partitioning between local and remote data, driven by
	// interconnect and DRAM saturation monitoring.
	CacheNUMAAware
)

func (m CacheMode) String() string {
	switch m {
	case CacheMemSideLocal:
		return "mem-side-local"
	case CacheStaticPartition:
		return "static-partition"
	case CacheSharedCoherent:
		return "shared-coherent"
	case CacheNUMAAware:
		return "numa-aware"
	}
	return "unknown-cache-mode"
}

// LinkMode selects the inter-GPU link bandwidth management policy
// (Section 4).
type LinkMode int

const (
	// LinkStatic keeps the design-time symmetric lane assignment.
	LinkStatic LinkMode = iota
	// LinkDynamic enables the adaptive per-GPU lane direction balancer.
	LinkDynamic
)

func (m LinkMode) String() string {
	if m == LinkDynamic {
		return "dynamic-asymmetric"
	}
	return "static-symmetric"
}

// Config describes one NUMA GPU system. All bandwidths are in
// bytes/cycle at the 1GHz system clock (1 B/cycle == 1 GB/s).
type Config struct {
	// Topology.
	Sockets      int // number of GPU sockets
	SMsPerSocket int // streaming multiprocessors per socket

	// SM parameters.
	MaxWarpsPerSM int // concurrent warps resident per SM (Table 1: 64)
	MaxCTAsPerSM  int // concurrent CTA slots per SM
	IssueWidth    int // instructions issued per SM per cycle

	// L1: private per SM, write-through, SW coherent.
	L1Bytes   int
	L1Assoc   int
	L1Latency int // hit latency, cycles

	// L2: per socket, banked, write-back (memory-side in mode a).
	L2Bytes   int
	L2Assoc   int
	L2Banks   int
	L2Latency int // hit latency, cycles

	// Intra-GPU NoC between SMs and L2 banks.
	NoCBandwidth float64 // bytes/cycle per socket
	NoCLatency   int

	// Local DRAM (HBM) per socket.
	DRAMBandwidth float64 // bytes/cycle per socket
	DRAMLatency   int     // cycles (Table 1: 100ns @ 1GHz)

	// Inter-GPU link: LanesPerDir lanes each direction by default.
	LanesPerDir   int
	LaneBandwidth float64 // bytes/cycle per lane
	LinkLatency   int     // one-way, cycles (Table 1: 128)
	SwitchLatency int     // switch traversal, cycles

	// Policy parameters.
	LinkSampleTime  int // cycles between balancer samples (Section 4.1)
	LaneSwitchTime  int // cycles to turn one lane around
	CacheSampleTime int // cycles between cache partition samples (5K)

	// Policies under study.
	Sched     CTASched
	Placement MemPlacement
	CacheMode CacheMode
	LinkMode  LinkMode

	// L2WriteThrough switches the coherent L2 portions to write-through
	// (Section 5.2 sensitivity study; write-back wins by ~9%).
	L2WriteThrough bool
	// NoL2Invalidate models the hypothetical L2 that ignores coherence
	// invalidation events (upper bound of Figure 9).
	NoL2Invalidate bool

	// Message overheads on the interconnect, bytes.
	RequestHeader  int // read request / write ack message size
	ResponseHeader int // header prepended to a 128B data response

	// Topology optionally replaces the symmetric crossbar with an
	// explicit fabric graph (per-socket resource overrides + weighted
	// links, possibly via intermediate switches). Nil synthesizes the
	// paper's crossbar from the link parameters above, reproducing the
	// legacy event schedule exactly; non-nil must validate and have
	// exactly Sockets socket entries. Omitted (zero) per-link values
	// inherit LanesPerDir / LaneBandwidth / LinkLatency.
	Topology *topo.Topology `json:",omitempty"`

	// Obs enables the opt-in observability layer (internal/obs):
	// per-socket/per-link/per-cache time series and an optional Chrome
	// trace, sampled by read-only probes that never mutate model state.
	// It is execution policy, not configuration — observation must not
	// change simulation identity, so the block is excluded from
	// experiment cache keys (byte-identity with sampling on is enforced
	// by TestObsOnByteIdentical; key exemption by TestRunKeyIgnoresObs).
	Obs ObsSpec `json:",omitzero"`
}

// ObsSpec is the Config.Obs policy block. The zero value disables all
// observation; Series and Trace opt in independently. Capacities are
// fixed up front so sampling stays allocation-free: rings overwrite
// their oldest entries when full and the drop counts are reported at
// flush time.
type ObsSpec struct {
	// Series enables per-socket/per-link/per-cache time series.
	Series bool `json:",omitzero"`
	// Trace enables the Chrome-trace event ring (kernel waves,
	// cross-socket transfers, drain phases).
	Trace bool `json:",omitzero"`
	// SamplePeriod is the cycles between samples (0 = 5000, the
	// paper's policy sampling window).
	SamplePeriod int `json:",omitzero"`
	// MaxSamples caps each series ring (0 = 4096 points).
	MaxSamples int `json:",omitzero"`
	// MaxTraceEvents caps the trace ring (0 = 65536 events).
	MaxTraceEvents int `json:",omitzero"`
}

// Enabled reports whether any observation output is requested.
func (o ObsSpec) Enabled() bool { return o.Series || o.Trace }

// PaperConfig returns the 4-socket configuration of Table 1.
func PaperConfig() Config {
	return Config{
		Sockets:      4,
		SMsPerSocket: 64,

		MaxWarpsPerSM: 64,
		MaxCTAsPerSM:  32,
		IssueWidth:    1,

		L1Bytes:   128 << 10,
		L1Assoc:   4,
		L1Latency: 28,

		L2Bytes:   4 << 20,
		L2Assoc:   16,
		L2Banks:   16,
		L2Latency: 96,

		NoCBandwidth: 2048, // ~2TB/s crossbar per socket
		NoCLatency:   12,

		DRAMBandwidth: 768, // 768GB/s per socket
		DRAMLatency:   100, // 100ns @ 1GHz

		LanesPerDir:   8,
		LaneBandwidth: 8, // 8GB/s per lane, 64GB/s per direction
		LinkLatency:   128,
		SwitchLatency: 16,

		LinkSampleTime:  5000,
		LaneSwitchTime:  100,
		CacheSampleTime: 5000,

		Sched:     SchedBlock,
		Placement: PlaceFirstTouch,
		CacheMode: CacheMemSideLocal,
		LinkMode:  LinkStatic,

		RequestHeader:  32,
		ResponseHeader: 32,
	}
}

// ScaledConfig returns a configuration with per-socket resources scaled
// by 1/divisor relative to PaperConfig while preserving every ratio that
// the paper's mechanisms depend on (DRAM:link = 12:1 per direction,
// L2:DRAM reach, SM:bandwidth balance). Experiments use divisor 8 so the
// full 41-workload sweeps finish quickly; divisor 1 is the paper machine.
func ScaledConfig(divisor int) Config {
	if divisor < 1 {
		divisor = 1
	}
	c := PaperConfig()
	c.SMsPerSocket = max(1, c.SMsPerSocket/divisor)
	c.L2Bytes = max(64<<10, c.L2Bytes/divisor)
	c.L2Banks = max(2, c.L2Banks/divisor)
	c.NoCBandwidth = maxf(16, c.NoCBandwidth/float64(divisor))
	c.DRAMBandwidth = maxf(8, c.DRAMBandwidth/float64(divisor))
	c.LaneBandwidth = maxf(0.5, c.LaneBandwidth/float64(divisor))
	return c
}

// TestConfig returns a tiny, fast configuration for unit tests.
func TestConfig() Config {
	c := ScaledConfig(16)
	c.SMsPerSocket = 2
	c.MaxWarpsPerSM = 16
	c.MaxCTAsPerSM = 8
	c.L1Bytes = 8 << 10
	c.L2Bytes = 32 << 10
	c.L2Banks = 2
	c.LinkSampleTime = 500
	c.CacheSampleTime = 500
	return c
}

// Monolithic returns the hypothetical single GPU with all per-socket
// resources multiplied by factor: the "unbuildable" N× larger GPU that
// Figures 3, 10 and 11 use as the theoretical scalability reference.
func (c Config) Monolithic(factor int) Config {
	m := c
	m.Sockets = 1
	m.SMsPerSocket = c.SMsPerSocket * factor
	m.L2Bytes = c.L2Bytes * factor
	m.L2Banks = c.L2Banks * factor
	m.NoCBandwidth = c.NoCBandwidth * float64(factor)
	m.DRAMBandwidth = c.DRAMBandwidth * float64(factor)
	m.Placement = PlaceFirstTouch // irrelevant: every page is local
	m.Topology = nil              // a fabric graph is meaningless with one socket
	return m
}

// WithSockets returns a copy of c with the socket count replaced.
func (c Config) WithSockets(n int) Config {
	c.Sockets = n
	return c
}

// TotalSMs reports the SM count across all sockets.
func (c Config) TotalSMs() int { return c.Sockets * c.SMsPerSocket }

// LinkDirBandwidth reports the default per-direction link bandwidth in
// bytes/cycle (lanes × lane bandwidth).
func (c Config) LinkDirBandwidth() float64 {
	return float64(c.LanesPerDir) * c.LaneBandwidth
}

// L1Lines and L2Lines report cache capacities in lines.
func (c Config) L1Lines() int { return c.L1Bytes / LineSize }
func (c Config) L2Lines() int { return c.L2Bytes / LineSize }

// Validate reports a descriptive error for configurations the model
// cannot simulate.
func (c Config) Validate() error {
	switch {
	case c.Sockets < 1:
		return cfgError("Sockets must be >= 1")
	case c.SMsPerSocket < 1:
		return cfgError("SMsPerSocket must be >= 1")
	case c.MaxWarpsPerSM < 1:
		return cfgError("MaxWarpsPerSM must be >= 1")
	case c.L1Bytes < LineSize*c.L1Assoc || c.L1Assoc < 1:
		return cfgError("L1 must hold at least one set")
	case c.L2Bytes < LineSize*c.L2Assoc || c.L2Assoc < 2:
		return cfgError("L2 must hold at least one set of >= 2 ways")
	case c.LanesPerDir < 1:
		return cfgError("LanesPerDir must be >= 1")
	case c.DRAMBandwidth <= 0 || c.LaneBandwidth <= 0 || c.NoCBandwidth <= 0:
		return cfgError("bandwidths must be positive")
	case c.LinkSampleTime < 1 || c.CacheSampleTime < 1:
		return cfgError("sample times must be >= 1")
	case c.Obs.SamplePeriod < 0 || c.Obs.MaxSamples < 0 || c.Obs.MaxTraceEvents < 0:
		return cfgError("Obs capacities and sample period must be >= 0")
	}
	if c.Topology != nil {
		if err := c.Topology.Validate(); err != nil {
			return err
		}
		if got := len(c.Topology.Sockets); got != c.Sockets {
			return cfgError("Topology socket count does not match Sockets")
		}
	}
	return nil
}

type cfgError string

func (e cfgError) Error() string { return "arch: invalid config: " + string(e) }

func maxf(a, b float64) float64 {
	if a > b {
		return a
	}
	return b
}
