// Package gpu assembles one GPU socket of the NUMA system: the SMs with
// their private L1 caches, the intra-GPU crossbar, the shared L2, local
// DRAM, and the socket's view of the inter-GPU interconnect. It
// implements the four L2 organizations of Figure 7 (Milic et al., MICRO
// 2017) and the NUMA-aware dynamic cache partition controller.
package gpu

// Drain tracks asynchronous writes (store traffic, dirty writebacks,
// coherence flushes) that must reach memory before a kernel boundary
// completes. All sockets of a system share one Drain; the runtime
// registers a callback to resume once everything has settled.
type Drain struct {
	n    int64
	idle func()
}

// Reset forgets every outstanding write and any registered waiter.
func (d *Drain) Reset() { *d = Drain{} }

// Inc records one outstanding write.
func (d *Drain) Inc() { d.n++ }

// Dec retires one outstanding write, firing the registered callback if
// this was the last one.
func (d *Drain) Dec() {
	d.n--
	if d.n < 0 {
		panic("gpu: drain underflow")
	}
	if d.n == 0 && d.idle != nil {
		f := d.idle
		d.idle = nil
		f()
	}
}

// Outstanding reports the number of writes still in flight.
func (d *Drain) Outstanding() int64 { return d.n }

// WhenIdle runs f once no writes are outstanding — immediately if that
// is already true. Only one waiter may be registered at a time.
func (d *Drain) WhenIdle(f func()) {
	if d.n == 0 {
		f()
		return
	}
	if d.idle != nil {
		panic("gpu: drain already has a waiter")
	}
	d.idle = f
}
