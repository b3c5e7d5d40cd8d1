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

// Reset idles the channel and zeroes the meter and counters.
func (d *DRAM) Reset() {
	d.srv.Reset()
	d.Bytes = stats.Meter{}
	d.Reads = stats.Counter{}
	d.Writes = stats.Counter{}
}

// ReadArg fetches size bytes and runs handler h with arg when the data
// is available — the MSHR fill path passes a pooled miss-record index
// through arg instead of allocating a completion closure per fetch.
func (d *DRAM) ReadArg(size int, h sim.Handler, arg int) {
	d.Reads.Inc()
	d.Bytes.Add(uint64(size))
	d.srv.TransferArg(size, h, arg)
}

// WriteArg stores size bytes and runs handler h with arg when the write
// has drained into the memory; a zero h is fire-and-forget. Store
// drains, writebacks and home-side remote writes complete through
// bound handlers.
func (d *DRAM) WriteArg(size int, h sim.Handler, arg int) {
	d.Writes.Inc()
	d.Bytes.Add(uint64(size))
	d.srv.TransferArg(size, h, arg)
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
