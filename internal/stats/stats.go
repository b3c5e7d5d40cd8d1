// Package stats provides the measurement primitives the NUMA GPU model
// and its runtime policies rely on: windowed bandwidth meters (the link
// balancer and cache partitioner both sample saturation over fixed
// windows), plain counters and hit rates, and the text tables the
// experiment harness renders. Time series, such as the per-link
// utilization profile of Figure 5, are recorded by internal/obs.
package stats

import "repro/internal/sim"

// Meter accumulates bytes transferred through a resource and exposes
// both lifetime totals and per-window readings. Windows are closed
// explicitly by the policy that samples the meter, so different policies
// can share one meter only if they share a sampling period; the model
// gives each consumer its own meter instead.
type Meter struct {
	total       uint64
	window      uint64
	windowStart sim.Time
}

// Add records n bytes.
func (m *Meter) Add(n uint64) {
	m.total += n
	m.window += n
}

// Total reports lifetime bytes.
func (m *Meter) Total() uint64 { return m.total }

// Utilization reports window bytes as a fraction of what a resource
// with the given bandwidth (bytes/cycle) could move since the window
// opened at time now. A resource that never idled reads 1.0.
func (m *Meter) Utilization(now sim.Time, bandwidth float64) float64 {
	elapsed := now - m.windowStart
	if elapsed == 0 || bandwidth <= 0 {
		return 0
	}
	return float64(m.window) / (bandwidth * float64(elapsed))
}

// Reset closes the current window and opens a new one at time now.
func (m *Meter) Reset(now sim.Time) {
	m.window = 0
	m.windowStart = now
}

// Counter is a named event counter.
type Counter struct{ n uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.n++ }

// Advance adds n.
func (c *Counter) Advance(n uint64) { c.n += n }

// Value reports the count.
func (c *Counter) Value() uint64 { return c.n }

// HitRate is a convenience pair of counters for cache statistics.
type HitRate struct {
	Hits   Counter
	Misses Counter
}

// Accesses reports the total number of lookups.
func (h *HitRate) Accesses() uint64 { return h.Hits.Value() + h.Misses.Value() }
