package core

import (
	"repro/internal/mem"
	"repro/internal/xlink"
)

// InterconnectEnergyPerBit is the Section 6 estimate for on-board link
// plus switch energy: 10 pJ per bit.
const InterconnectEnergyPerBit = 10e-12

// Result captures everything the experiment harness needs from one run.
// The json tags define the stable wire format used by the numagpud
// service and its disk-backed result cache; renaming a tag invalidates
// persisted cache entries, so treat them as a public API.
type Result struct {
	Name   string `json:"name"`
	Cycles uint64 `json:"cycles"` // end-to-end cycles including final drain

	KernelCycles []uint64 `json:"kernel_cycles,omitempty"` // per-kernel execution time

	Instructions uint64 `json:"instructions"` // warp instructions issued
	Loads        uint64 `json:"loads"`
	Stores       uint64 `json:"stores"`

	// Locality.
	RemoteAccessFraction float64 `json:"remote_access_fraction"` // fraction of mem accesses homed remotely

	// Cache behaviour (aggregated over sockets/SMs).
	L1HitRate       float64 `json:"l1_hit_rate"`
	L2LocalHitRate  float64 `json:"l2_local_hit_rate"`
	L2RemoteHitRate float64 `json:"l2_remote_hit_rate"`

	// Interconnect. LinkBytes sums the bytes every link carried in
	// both directions, so a message counts once per link it crosses:
	// on the synthesized star a socket-to-socket message crosses two
	// (socket to switch, switch to socket), and one remote line read
	// (a 32-byte request, a 160-byte response) adds 384.
	LinkBytes  uint64 `json:"link_bytes"`
	LaneTurns  uint64 `json:"lane_turns"`
	WayShifts  uint64 `json:"way_shifts"`
	FlushLines uint64 `json:"flush_lines"`

	// DRAM.
	DRAMBytes uint64 `json:"dram_bytes"`
}

// Seconds converts cycles to wall-clock seconds at the 1GHz clock.
func (r Result) Seconds() float64 { return float64(r.Cycles) * 1e-9 }

// InterconnectEnergy reports Joules spent moving bits between sockets
// at 10pJ/b (Section 6).
func (r Result) InterconnectEnergy() float64 {
	return float64(r.LinkBytes) * 8 * InterconnectEnergyPerBit
}

// InterconnectPower reports the average communication power in Watts.
func (r Result) InterconnectPower() float64 {
	s := r.Seconds()
	if s == 0 {
		return 0
	}
	return r.InterconnectEnergy() / s
}

// SpeedupOver reports how much faster this run was than base.
func (r Result) SpeedupOver(base Result) float64 {
	if r.Cycles == 0 {
		return 0
	}
	return float64(base.Cycles) / float64(r.Cycles)
}

func (s *System) collect(name string) Result {
	r := Result{
		Name:         name,
		Cycles:       uint64(s.endTime),
		KernelCycles: s.kernelTimes,
	}
	var l1Hits, l1Acc uint64
	var l2LHits, l2LAcc, l2RHits, l2RAcc uint64
	var local, remote uint64
	for _, sock := range s.sockets {
		for _, sm := range sock.SMs {
			r.Instructions += sm.Issued.Value()
			r.Loads += sm.LoadOps.Value()
			r.Stores += sm.StoreOps.Value()
		}
		for i := range sock.SMs {
			l1 := sock.L1(i)
			l1Hits += l1.Hit[mem.ClassLocal].Hits.Value() + l1.Hit[mem.ClassRemote].Hits.Value()
			l1Acc += l1.Hit[mem.ClassLocal].Accesses() + l1.Hit[mem.ClassRemote].Accesses()
		}
		l2 := sock.L2()
		l2LHits += l2.Hit[mem.ClassLocal].Hits.Value()
		l2LAcc += l2.Hit[mem.ClassLocal].Accesses()
		l2RHits += l2.Hit[mem.ClassRemote].Hits.Value()
		l2RAcc += l2.Hit[mem.ClassRemote].Accesses()
		local += sock.LoadsLocal.Value() + sock.StoresLocal.Value()
		remote += sock.LoadsRemote.Value() + sock.StoresRemote.Value()
		r.DRAMBytes += sock.DRAM().Bytes.Total()
		r.FlushLines += sock.FlushedLines.Value()
	}
	if s.fabric != nil {
		for i := 0; i < s.fabric.NumLinks(); i++ {
			link := s.fabric.LinkAt(i)
			r.LaneTurns += link.Turns.Value()
			r.LinkBytes += link.Sent[xlink.Egress].Value() + link.Sent[xlink.Ingress].Value()
		}
	}
	if l1Acc > 0 {
		r.L1HitRate = float64(l1Hits) / float64(l1Acc)
	}
	if l2LAcc > 0 {
		r.L2LocalHitRate = float64(l2LHits) / float64(l2LAcc)
	}
	if l2RAcc > 0 {
		r.L2RemoteHitRate = float64(l2RHits) / float64(l2RAcc)
	}
	if local+remote > 0 {
		r.RemoteAccessFraction = float64(remote) / float64(local+remote)
	}
	for _, p := range s.partitions {
		r.WayShifts += p.Shifts.Value()
	}
	return r
}
