package mem

import (
	"repro/internal/sim"
	"repro/internal/stats"
)

// DRAM models one socket's local high-bandwidth memory: a fixed access
// latency plus a bandwidth-serialized channel group (Table 1: 768GB/s,
// 100ns). Reads and writes share the channel bandwidth, as they do on
// HBM stacks with shared pseudo-channels.
type DRAM struct {
	srv *sim.Server

	// Bytes transports both directions; the cache partition policy
	// samples it to detect local memory saturation (Step 1 of the
	// Figure 7(d) algorithm).
	Bytes stats.Meter

	Reads  stats.Counter
	Writes stats.Counter
}

// NewDRAM builds a DRAM with the given bandwidth (bytes/cycle) and
// latency (cycles).
func NewDRAM(eng *sim.Engine, bandwidth float64, latency int) *DRAM {
	return &DRAM{srv: sim.NewServer(eng, bandwidth, latency)}
}

// Read fetches size bytes; done fires when the data is available.
func (d *DRAM) Read(size int, done sim.Event) {
	d.Reads.Inc()
	d.Bytes.Add(uint64(size))
	d.srv.Transfer(size, done)
}

// ReadArg is Read for a long-lived ArgEvent callback plus an integer
// argument — the MSHR fill path passes a pooled miss-record index
// through arg instead of allocating a completion closure per fetch.
func (d *DRAM) ReadArg(size int, fn sim.ArgEvent, arg int) {
	d.Reads.Inc()
	d.Bytes.Add(uint64(size))
	d.srv.TransferArg(size, fn, arg)
}

// Write stores size bytes; done (may be nil) fires when the write has
// drained into the memory.
func (d *DRAM) Write(size int, done sim.Event) {
	d.Writes.Inc()
	d.Bytes.Add(uint64(size))
	d.srv.Transfer(size, done)
}

// WriteArg is Write for a long-lived ArgEvent callback plus an integer
// argument: store drains, writebacks and home-side remote writes
// complete through pre-bound continuations instead of closures.
func (d *DRAM) WriteArg(size int, fn sim.ArgEvent, arg int) {
	d.Writes.Inc()
	d.Bytes.Add(uint64(size))
	d.srv.TransferArg(size, fn, arg)
}

// Utilization reports channel utilization over the current sampling
// window ending at now.
func (d *DRAM) Utilization(now sim.Time) float64 {
	return d.Bytes.Utilization(now, d.srv.Bandwidth())
}

// ResetWindow opens a new sampling window at now.
func (d *DRAM) ResetWindow(now sim.Time) { d.Bytes.Reset(now) }

// Bandwidth reports the configured bandwidth in bytes/cycle.
func (d *DRAM) Bandwidth() float64 { return d.srv.Bandwidth() }
