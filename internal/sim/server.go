package sim

import "math"

// Server models a serializing bandwidth-limited resource: a DRAM channel
// group, an on-chip crossbar, or one direction of an inter-GPU link.
//
// A transfer of size S bytes occupies the server for S/Bandwidth cycles
// (serialization) and then pays Latency cycles of pipeline delay before
// completion is signalled. Occupancy is tracked at sub-cycle resolution
// so many small messages can share one cycle of a wide resource;
// back-to-back transfers queue implicitly via the busy-until
// bookkeeping, so queueing delay under contention emerges without
// modelling explicit queues.
type Server struct {
	eng *Engine

	bandwidth float64 // bytes per cycle
	latency   Time

	nextFree float64 // fractional cycle when the wire frees up
}

// NewServer creates a server with the given bandwidth (bytes/cycle) and
// latency (cycles) attached to engine eng.
func NewServer(eng *Engine, bandwidth float64, latency int) *Server {
	return &Server{eng: eng, bandwidth: bandwidth, latency: Time(latency)}
}

// Reset empties the server's queue: the next transfer starts on an
// idle wire. The bandwidth stays as it is; a component that changes it
// restores its own design value.
func (s *Server) Reset() { s.nextFree = 0 }

// SetBandwidth changes the server's bandwidth from now on. In-flight
// transfers keep their original completion times; the link balancer uses
// this when lanes are re-pointed.
func (s *Server) SetBandwidth(bw float64) { s.bandwidth = bw }

// Bandwidth reports the current bandwidth in bytes/cycle.
func (s *Server) Bandwidth() float64 { return s.bandwidth }

// Latency reports the fixed pipeline latency in cycles.
func (s *Server) Latency() Time { return s.latency }

// BusyUntil reports the cycle at which the serialization stage frees up.
func (s *Server) BusyUntil() Time { return Time(math.Ceil(s.nextFree)) }

// TransferArg enqueues a transfer of size bytes and, when the last
// byte has arrived (serialization + latency), runs handler h with arg:
// the memory datapath passes a pooled record index through arg. A zero
// h is fire-and-forget traffic whose completion is tracked elsewhere.
// It returns the completion time.
func (s *Server) TransferArg(size int, h Handler, arg int) Time {
	complete := s.occupy(size)
	if h != 0 {
		s.eng.AtArg(complete, h, arg)
	}
	return complete
}

// occupy books size bytes of serialization time and returns the cycle
// at which the transfer completes.
func (s *Server) occupy(size int) Time {
	now := float64(s.eng.Now())
	start := s.nextFree
	if start < now {
		start = now
	}
	dur := 0.0
	if s.bandwidth > 0 {
		dur = float64(size) / s.bandwidth
	}
	s.nextFree = start + dur
	return Time(math.Ceil(s.nextFree)) + s.latency
}

// Stall reserves the server for the given number of cycles without
// transferring data: used for lane turnaround penalties.
func (s *Server) Stall(cycles int) {
	now := float64(s.eng.Now())
	if s.nextFree < now {
		s.nextFree = now
	}
	s.nextFree += float64(cycles)
}
