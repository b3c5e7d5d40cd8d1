// Package noc models the intra-GPU network on chip: the crossbar that
// carries traffic between the SMs (L1 caches) and the banked L2 slices
// of one GPU socket. It is an aggregate bandwidth-limited pipe — GPU
// crossbars are provisioned well above DRAM bandwidth, so per-port
// contention is secondary to the aggregate ceiling.
package noc

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// Crossbar is one socket's SM↔L2 interconnect.
type Crossbar struct {
	srv   *sim.Server
	Bytes stats.Meter
}

// New builds a crossbar with the given aggregate bandwidth (bytes/cycle)
// and traversal latency (cycles).
func New(eng *sim.Engine, bandwidth float64, latency int) *Crossbar {
	return &Crossbar{srv: sim.NewServer(eng, bandwidth, latency)}
}

// SendArg moves size bytes across the crossbar and runs handler h with
// arg on delivery — the datapath's pooled-continuation path (h is a
// stage bound once per socket, arg a transaction index). A zero h is
// traffic whose completion is tracked elsewhere.
func (x *Crossbar) SendArg(size int, h sim.Handler, arg int) {
	x.Bytes.Add(uint64(size))
	x.srv.TransferArg(size, h, arg)
}

// Utilization reports crossbar utilization over the window ending now.
func (x *Crossbar) Utilization(now sim.Time) float64 {
	return x.Bytes.Utilization(now, x.srv.Bandwidth())
}

// ResetWindow opens a new sampling window at now.
func (x *Crossbar) ResetWindow(now sim.Time) { x.Bytes.Reset(now) }
