package gpu

import (
	"repro/internal/arch"
	"repro/internal/mem"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/xlink"
)

// PartitionController implements the NUMA-aware cache partitioning
// algorithm of Figure 7(d): every SampleTime cycles it estimates the
// socket's incoming inter-GPU bandwidth from the outgoing read-request
// rate, monitors local DRAM bandwidth, and shifts one way between the
// local and remote groups of the L1s and L2 accordingly:
//
//	inter-GPU saturated, DRAM not  → RemoteWays++, LocalWays--
//	DRAM saturated, inter-GPU not  → RemoteWays--, LocalWays++
//	both saturated                 → equalize one step
//	neither                        → do nothing
//
// At least one way always remains per class (starvation guard).
type PartitionController struct {
	socket *Socket
	sample sim.Time
	ticker *sim.Ticker

	// Decisions counts sampling rounds; Shifts counts rounds that moved
	// a way in either direction.
	Decisions stats.Counter
	Shifts    stats.Counter
}

// NewPartitionController attaches a controller to s with the given
// sampling period in cycles (the paper uses 5K).
func NewPartitionController(s *Socket, sampleTime int) *PartitionController {
	if sampleTime < 1 {
		sampleTime = 1
	}
	return &PartitionController{socket: s, sample: sim.Time(sampleTime)}
}

// Start begins periodic sampling; the controller runs until Stop.
func (p *PartitionController) Start(eng *sim.Engine) {
	now := eng.Now()
	p.socket.dram.ResetWindow(now)
	p.socket.remoteReqs.Reset(now)
	p.socket.remoteResp.Reset(now)
	p.ticker = sim.NewTicker(eng, p.sample, p.Step)
	p.ticker.Start()
}

// Stop halts sampling after the current tick.
func (p *PartitionController) Stop() {
	if p.ticker != nil {
		p.ticker.Stop()
	}
}

// Step runs one sampling decision at time now. Exposed for tests.
func (p *PartitionController) Step(now sim.Time) {
	p.Decisions.Inc()
	s := p.socket
	defer func() {
		s.dram.ResetWindow(now)
		s.remoteReqs.Reset(now)
		s.remoteResp.Reset(now)
	}()
	if s.port == nil || s.cfg.CacheMode != arch.CacheNUMAAware {
		return
	}
	// Estimated incoming bandwidth: outgoing read requests × response
	// size, already accumulated in bytes by the socket. Using requests
	// rather than observed ingress avoids mistaking incoming writes
	// from other sockets for our own demand (paper, Section 5.1).
	// Projected incoming bandwidth: outgoing read requests × response
	// size; when a standing backlog is draining, arriving responses are
	// the better signal, so take the larger of the two. Incoming writes
	// from other sockets are deliberately excluded (Section 5.1).
	inBW := s.port.IngressBandwidth()
	inUtil := s.remoteReqs.Utilization(now, inBW)
	if resp := s.remoteResp.Utilization(now, inBW); resp > inUtil {
		inUtil = resp
	}
	dramUtil := s.dram.Utilization(now)
	satIn := inUtil >= xlink.SaturationThreshold
	satDRAM := dramUtil >= xlink.SaturationThreshold

	switch {
	case satIn && !satDRAM:
		p.shift(mem.ClassLocal, mem.ClassRemote)
	case satDRAM && !satIn:
		p.shift(mem.ClassRemote, mem.ClassLocal)
	case satIn && satDRAM:
		p.equalize()
	}
}

// shift moves one way from donor to receiver in the L2 and every L1.
func (p *PartitionController) shift(from, to mem.Class) {
	moved := p.socket.l2.ShiftWays(from, to)
	for _, l1 := range p.socket.l1s {
		if l1.Partitioned() {
			l1.ShiftWays(from, to)
		}
	}
	if moved {
		p.Shifts.Inc()
	}
}

// equalize steps the L2 (and L1s) one way back toward a balanced split.
func (p *PartitionController) equalize() {
	l2 := p.socket.l2
	switch {
	case l2.Ways(mem.ClassLocal) > l2.Ways(mem.ClassRemote)+1:
		p.shift(mem.ClassLocal, mem.ClassRemote)
	case l2.Ways(mem.ClassRemote) > l2.Ways(mem.ClassLocal)+1:
		p.shift(mem.ClassRemote, mem.ClassLocal)
	}
}
