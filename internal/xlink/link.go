// Package xlink models the inter-GPU interconnect of the multi-socket
// NUMA GPU: per-socket links to a central high-bandwidth switch, built
// from individually reversible lanes, plus the dynamic link load
// balancer of Section 4 of Milic et al. (MICRO 2017).
//
// Each link has two directions — egress (GPU to switch) and ingress
// (switch to GPU) — made of lanes that default to a symmetric split
// (Table 1: 8 lanes × 8GB/s per direction). The balancer samples
// directional utilization every SampleTime cycles and re-points one
// lane from an unsaturated direction to a saturated one, paying a
// SwitchTime turnaround, exactly as the paper describes.
package xlink

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// Direction distinguishes the two sides of a link, named from the GPU's
// perspective.
type Direction int

const (
	// Egress carries traffic from the GPU socket into the switch.
	Egress Direction = iota
	// Ingress carries traffic from the switch into the GPU socket.
	Ingress
)

func (d Direction) String() string {
	if d == Egress {
		return "egress"
	}
	return "ingress"
}

// Link is one physical cable of the fabric: between a socket and a
// switch in the paper's star, or between any two topology nodes in a
// user-supplied graph. Direction Egress is the A→B traversal of the
// owning topology edge; Ingress is B→A.
type Link struct {
	eng        *sim.Engine
	name       string
	laneBW     float64
	totalLanes int
	switchTime int

	lanes  [2]int
	design [2]int // design-time lane assignment, restored at kernel launch
	srv    [2]*sim.Server

	balBytes [2]stats.Meter // sampling window for the balancer & policies
	gen      uint64         // invalidates in-flight lane-turn completions

	// Turns counts completed lane reversals; Sent counts bytes by
	// direction over the link's lifetime.
	Turns stats.Counter
	Sent  [2]stats.Counter
}

// NewLink builds a symmetric link with lanesPerDir lanes in each
// direction, each moving laneBW bytes/cycle, with oneWayLatency cycles
// end to end (split across the two traversals) and the given lane
// turnaround time.
func NewLink(eng *sim.Engine, lanesPerDir int, laneBW float64, oneWayLatency, switchTime int) *Link {
	half := oneWayLatency / 2
	return NewLinkAsym(eng, lanesPerDir, lanesPerDir, laneBW, half, oneWayLatency-half, switchTime)
}

// NewLinkAsym builds a link whose two directions are provisioned
// independently: lanesAB/latAB for the Egress (A→B) traversal and
// lanesBA/latBA for Ingress (B→A). The lane budget is still shared —
// the balancer may re-point lanes across the asymmetric design — and
// kernel launches restore the design split via ResetDesign.
func NewLinkAsym(eng *sim.Engine, lanesAB, lanesBA int, laneBW float64, latAB, latBA, switchTime int) *Link {
	l := &Link{
		eng:        eng,
		laneBW:     laneBW,
		totalLanes: lanesAB + lanesBA,
		switchTime: switchTime,
	}
	l.design[Egress] = lanesAB
	l.design[Ingress] = lanesBA
	l.lanes = l.design
	l.srv[Egress] = sim.NewServer(eng, float64(lanesAB)*laneBW, latAB)
	l.srv[Ingress] = sim.NewServer(eng, float64(lanesBA)*laneBW, latBA)
	return l
}

// Name reports the fabric-assigned label (e.g. "s0-x0"); empty for
// links constructed directly.
func (l *Link) Name() string { return l.name }

// Lanes reports the lanes currently assigned to dir (including a lane
// mid-turn toward dir, which counts at its destination).
func (l *Link) Lanes(dir Direction) int { return l.lanes[dir] }

// TotalLanes reports the invariant lane budget of the link.
func (l *Link) TotalLanes() int { return l.totalLanes }

// Bandwidth reports dir's current capacity in bytes/cycle.
func (l *Link) Bandwidth(dir Direction) float64 { return l.srv[dir].Bandwidth() }

// SendArg moves size bytes in direction dir and runs handler h with arg
// on delivery at the far end of this traversal; a zero h sends without
// a continuation. The fabric's multi-hop walker passes its pooled
// route-record index through arg instead of allocating a closure per
// hop.
func (l *Link) SendArg(dir Direction, size int, h sim.Handler, arg int) {
	l.Sent[dir].Advance(uint64(size))
	l.balBytes[dir].Add(uint64(size))
	l.srv[dir].TransferArg(size, h, arg)
}

// Backlog reports how many cycles of queued traffic dir's
// serialization stage holds at now: 0 when the direction is idle. A
// read-only queue-depth probe for the observability layer.
func (l *Link) Backlog(dir Direction, now sim.Time) sim.Time {
	if busy := l.srv[dir].BusyUntil(); busy > now {
		return busy - now
	}
	return 0
}

// Utilization reports dir's utilization over the balancer window ending
// at now.
func (l *Link) Utilization(dir Direction, now sim.Time) float64 {
	return l.balBytes[dir].Utilization(now, l.srv[dir].Bandwidth())
}

// ResetWindow opens a new balancer sampling window at now.
func (l *Link) ResetWindow(now sim.Time) {
	l.balBytes[Egress].Reset(now)
	l.balBytes[Ingress].Reset(now)
}

// TurnLane re-points one lane from direction from to direction to. The
// donor loses capacity immediately (the lane quiesces); the receiver
// gains it after the configured switch time. It reports whether a lane
// was available to turn (at least one lane always remains per
// direction).
func (l *Link) TurnLane(from, to Direction) bool {
	if from == to || l.lanes[from] <= 1 {
		return false
	}
	l.lanes[from]--
	l.lanes[to]++
	l.srv[from].SetBandwidth(float64(l.lanes[from]) * l.laneBW)
	gen := l.gen
	target := float64(l.lanes[to]) * l.laneBW
	l.eng.Schedule(sim.Time(l.switchTime), func(sim.Time) {
		if l.gen != gen {
			return // a reset intervened; it already set bandwidths
		}
		if cur := l.srv[to].Bandwidth(); cur < target {
			l.srv[to].SetBandwidth(target)
		}
	})
	l.Turns.Inc()
	return true
}

// ResetDesign restores the design-time lane assignment (symmetric for
// paper-style links, possibly asymmetric for topology-specified ones),
// applied instantaneously at kernel launch (the paper reconfigures all
// links on every kernel boundary).
func (l *Link) ResetDesign() {
	l.gen++
	l.lanes = l.design
	l.srv[Egress].SetBandwidth(float64(l.lanes[Egress]) * l.laneBW)
	l.srv[Ingress].SetBandwidth(float64(l.lanes[Ingress]) * l.laneBW)
}

func (l *Link) String() string {
	return fmt.Sprintf("link{egress=%d ingress=%d lanes}", l.lanes[Egress], l.lanes[Ingress])
}
