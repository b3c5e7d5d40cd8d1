// Package vmm models the unified virtual memory of the NUMA GPU: a
// system-wide page table mapping pages to GPU sockets under the three
// placement policies contrasted in Section 3 of Milic et al. —
// fine-grained interleaving (the single-GPU policy extended across
// sockets), Linux-style round-robin page interleaving, and UVM
// first-touch migration.
package vmm

import (
	"repro/internal/arch"
	"repro/internal/linetab"
	"repro/internal/stats"
)

// Memory is the system-wide page table and placement policy.
type Memory struct {
	sockets int
	policy  arch.MemPlacement
	pages   pageTable

	// lastPage (the page plus one; 0 = none) and lastHome memoize the
	// latest first-touch lookup: a warp's coalesced lines mostly share a
	// page, so Owner is usually asked for the page it just resolved.
	// Preplacing clears the memo.
	lastPage arch.PageID
	lastHome arch.SocketID

	// schedule is the weighted interleave round: a socket of weight w
	// appears w times, round-major (one slot per socket with remaining
	// weight per pass), so low-weight sockets still receive early slots.
	// Nil means uniform, in which case the interleave policies reduce to
	// the plain `unit % sockets` of the paper.
	schedule []arch.SocketID

	// Migrations counts first-touch placements (page migrations from
	// system memory into a GPU's local memory).
	Migrations stats.Counter
}

// New builds a memory map for a system with the given socket count and
// placement policy.
func New(sockets int, policy arch.MemPlacement) *Memory {
	return NewWeighted(sockets, policy, nil)
}

// NewWeighted is New with per-socket interleave weights taken from the
// system topology: a socket of weight w receives w of every
// sum(weights) interleave units (and pages, and preplaced-interleave
// pages). weights may be nil or all-equal for the uniform behaviour;
// otherwise len(weights) must equal sockets and every weight must be
// >= 1.
func NewWeighted(sockets int, policy arch.MemPlacement, weights []int) *Memory {
	m := &Memory{sockets: sockets, policy: policy}
	if policy == arch.PlaceFirstTouch {
		m.pages.Init(1 << 12)
	}
	if weights != nil {
		if len(weights) != sockets {
			panic("vmm: len(weights) != sockets")
		}
		uniform := true
		maxW := 0
		for _, w := range weights {
			if w < 1 {
				panic("vmm: interleave weights must be >= 1")
			}
			if w != weights[0] {
				uniform = false
			}
			if w > maxW {
				maxW = w
			}
		}
		if !uniform {
			for pass := 0; pass < maxW; pass++ {
				for s, w := range weights {
					if w > pass {
						m.schedule = append(m.schedule, arch.SocketID(s))
					}
				}
			}
		}
	}
	return m
}

// interleave maps interleave unit u (a 256B group, a page, ...) to its
// socket under the weighted schedule.
func (m *Memory) interleave(u uint64) arch.SocketID {
	if m.schedule == nil {
		return arch.SocketID(u % uint64(m.sockets))
	}
	return m.schedule[u%uint64(len(m.schedule))]
}

// Sockets reports the socket count.
func (m *Memory) Sockets() int { return m.sockets }

// Owner resolves the home socket of the line l for a request issued by
// requester. Under first touch, an unmapped page is placed on the
// requester's socket (on-demand migration from system memory). This is
// the datapath's per-access lookup, so the first-touch table is
// open-addressed rather than a Go map (see pageTable), and a first
// touch finds and places the page in one probe walk.
func (m *Memory) Owner(l arch.LineID, requester arch.SocketID) arch.SocketID {
	if m.sockets == 1 {
		return 0
	}
	switch m.policy {
	case arch.PlaceFineInterleave:
		return m.interleave(uint64(l.Addr()) / arch.FineInterleaveGranularity)
	case arch.PlacePageInterleave:
		return m.interleave(uint64(arch.PageOfLine(l)))
	default: // PlaceFirstTouch
		p := arch.PageOfLine(l)
		if p+1 == m.lastPage {
			return m.lastHome
		}
		i, placed := m.pages.FindOrInsert(p, requester)
		m.lastPage, m.lastHome = p+1, *m.pages.Val(i)
		if !placed {
			m.Migrations.Inc()
		}
		return m.lastHome
	}
}

// Peek resolves the home socket without triggering first-touch
// placement; ok is false when the page is still in system memory.
func (m *Memory) Peek(l arch.LineID) (arch.SocketID, bool) {
	if m.sockets == 1 {
		return 0, true
	}
	switch m.policy {
	case arch.PlaceFineInterleave:
		return m.interleave(uint64(l.Addr()) / arch.FineInterleaveGranularity), true
	case arch.PlacePageInterleave:
		return m.interleave(uint64(arch.PageOfLine(l))), true
	default:
		return m.pages.Get(arch.PageOfLine(l))
	}
}

// Preplace pins every page in [start, start+size) to socket s,
// regardless of policy (meaningful only under first touch, where it
// models data touched by an earlier phase, e.g. initialization output
// buffers). Other policies ignore it.
func (m *Memory) Preplace(start arch.Addr, size int64, s arch.SocketID) {
	if m.policy != arch.PlaceFirstTouch || m.sockets == 1 {
		return
	}
	first := arch.PageOf(start)
	last := arch.PageOf(start + arch.Addr(size-1))
	for p := first; p <= last; p++ {
		m.pages.Put(p, s)
	}
	m.lastPage = 0
}

// PreplaceInterleave pins the pages of [start, start+size) round-robin
// across all sockets (under first touch only): the placement a striped
// initialization kernel would have produced for shared data structures.
func (m *Memory) PreplaceInterleave(start arch.Addr, size int64) {
	if m.policy != arch.PlaceFirstTouch || m.sockets == 1 {
		return
	}
	first := arch.PageOf(start)
	last := arch.PageOf(start + arch.Addr(size-1))
	for p := first; p <= last; p++ {
		m.pages.Put(p, m.interleave(uint64(p-first)))
	}
	m.lastPage = 0
}

// MappedPages reports how many pages have a first-touch mapping.
func (m *Memory) MappedPages() int { return m.pages.Len() }

// DistributionOf reports, per socket, the fraction of mapped pages it
// owns (first touch only; interleave policies are uniform by
// construction). Useful for asserting locality in tests.
func (m *Memory) DistributionOf() []float64 {
	out := make([]float64, m.sockets)
	if m.pages.Len() == 0 {
		return out
	}
	for _, s := range m.pages.All() {
		out[s]++
	}
	n := float64(m.pages.Len())
	for i := range out {
		out[i] /= n
	}
	return out
}

// pageTable is the first-touch page table. Pages are never unmapped, and
// Put overwrites (Preplace may re-pin a page). Compared to the Go map it
// replaced, a warm lookup is one multiply plus a short probe over packed
// keys with no hash-function call, and insertion never allocates outside
// the amortized doubling. Nothing order-dependent ever iterates it
// (DistributionOf sums per-socket counts), so probe layout cannot leak
// into simulation behaviour.
type pageTable = linetab.Table[arch.PageID, arch.SocketID]
