// Package topo defines the interconnect topology of a NUMA GPU system
// as a plain data value: per-socket resource specs plus a weighted link
// graph with per-edge lanes, lane bandwidth, latency and switch hops.
//
// The paper's machine (Milic et al., MICRO 2017) is a symmetric
// crossbar — every socket one hop from a central switch — and remains
// the default: an arch.Config with a nil Topology synthesizes exactly
// that star (see Crossbar). Supplying a Topology instead turns the repo
// into a design-space tool for asymmetric fabrics: NVLink-style cliques,
// thin inter-pair bridges, switch trees and heterogeneous sockets, with
// xlink.Fabric routing every message over precomputed deterministic
// shortest paths.
//
// Node numbering: sockets are nodes 0..len(Sockets)-1; the Switches
// count appends that many pure forwarding nodes after them. Links are
// physical cables between two nodes, each built from individually
// reversible lanes (the Section 4 balancer operates per physical link);
// the two directions of a link may be provisioned asymmetrically.
//
// The package deliberately imports nothing but the standard library so
// arch.Config can embed a *Topology without an import cycle.
package topo

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
)

// SocketSpec overrides per-socket resources. Zero values inherit the
// uniform value from arch.Config, so the empty spec is "a default
// socket" and a symmetric machine is a slice of empty specs.
type SocketSpec struct {
	// SMs overrides Config.SMsPerSocket for this socket.
	SMs int `json:"sms,omitempty"`
	// L2Bytes overrides Config.L2Bytes for this socket.
	L2Bytes int `json:"l2_bytes,omitempty"`
	// DRAMBandwidth overrides Config.DRAMBandwidth (bytes/cycle).
	DRAMBandwidth float64 `json:"dram_bandwidth,omitempty"`
	// DRAMLatency overrides Config.DRAMLatency (cycles).
	DRAMLatency int `json:"dram_latency,omitempty"`
	// Weight biases the interleaving page/line placement policies
	// toward this socket: a socket of weight w receives w slots per
	// round of the interleave schedule. Zero means 1. All-equal weights
	// reduce exactly to the uniform round-robin of the paper.
	Weight int `json:"weight,omitempty"`
}

// LinkSpec is one physical link: a bidirectional cable between nodes A
// and B whose two directions may carry different lane counts, latencies
// and switch-hop charges. Zero values inherit the Config defaults
// (LanesPerDir, LaneBandwidth, LinkLatency); hops default to zero.
type LinkSpec struct {
	// A and B are the endpoint node ids (socket or switch nodes).
	A int `json:"a"`
	B int `json:"b"`
	// LanesAB and LanesBA are the design-time lane counts of the A→B
	// and B→A directions. The dynamic balancer may re-point lanes at
	// runtime; kernel launches restore this design assignment.
	LanesAB int `json:"lanes_ab,omitempty"`
	LanesBA int `json:"lanes_ba,omitempty"`
	// LaneBandwidth is bytes/cycle per lane (both directions).
	LaneBandwidth float64 `json:"lane_bandwidth,omitempty"`
	// LatencyAB and LatencyBA are the per-traversal wire latencies in
	// cycles.
	LatencyAB int `json:"latency_ab,omitempty"`
	LatencyBA int `json:"latency_ba,omitempty"`
	// HopsAB and HopsBA count switch traversals charged after the
	// message is delivered at the far end of the direction: each hop
	// costs Config.SwitchLatency cycles before the next link (or the
	// destination) sees the message.
	HopsAB int `json:"hops_ab,omitempty"`
	HopsBA int `json:"hops_ba,omitempty"`
}

// Topology is a complete fabric description. Link order is significant:
// it fixes physical link indices (balancer and link-series attachment
// order) and breaks routing ties, so it is part of the canonical
// encoding.
type Topology struct {
	// Sockets lists the GPU sockets; len(Sockets) must match
	// Config.Sockets when the topology is attached to a config.
	Sockets []SocketSpec `json:"sockets"`
	// Switches appends that many pure forwarding nodes (no memory, no
	// SMs) after the socket nodes.
	Switches int `json:"switches,omitempty"`
	// Links is the physical link list.
	Links []LinkSpec `json:"links"`
}

// Nodes reports the total node count (sockets + switches).
func (t *Topology) Nodes() int { return len(t.Sockets) + t.Switches }

// Validate reports a descriptive error for topologies the model cannot
// simulate: out-of-range endpoints, self-loops, duplicate links,
// negative parameters, or a graph that does not connect every node.
func (t *Topology) Validate() error {
	if len(t.Sockets) < 1 {
		return topoError("need at least one socket")
	}
	if t.Switches < 0 {
		return topoError("Switches must be >= 0")
	}
	for i, s := range t.Sockets {
		if s.SMs < 0 || s.L2Bytes < 0 || s.DRAMBandwidth < 0 || s.DRAMLatency < 0 || s.Weight < 0 {
			return topoError(fmt.Sprintf("socket %d: spec values must be >= 0", i))
		}
	}
	n := t.Nodes()
	seen := make(map[[2]int]bool, len(t.Links))
	for i, l := range t.Links {
		if l.A < 0 || l.A >= n || l.B < 0 || l.B >= n {
			return topoError(fmt.Sprintf("link %d: endpoint out of range (nodes 0..%d)", i, n-1))
		}
		if l.A == l.B {
			return topoError(fmt.Sprintf("link %d: self-loop on node %d", i, l.A))
		}
		key := [2]int{l.A, l.B}
		if l.B < l.A {
			key = [2]int{l.B, l.A}
		}
		if seen[key] {
			return topoError(fmt.Sprintf("link %d: duplicate link between nodes %d and %d", i, l.A, l.B))
		}
		seen[key] = true
		if l.LanesAB < 0 || l.LanesBA < 0 || l.LaneBandwidth < 0 ||
			l.LatencyAB < 0 || l.LatencyBA < 0 || l.HopsAB < 0 || l.HopsBA < 0 {
			return topoError(fmt.Sprintf("link %d: parameters must be >= 0", i))
		}
	}
	if n > 1 {
		if len(t.Links) == 0 {
			return topoError("multi-node topology has no links")
		}
		// Every node must be reachable from socket 0 (links are
		// bidirectional, so undirected reachability suffices).
		adj := make([][]int, n)
		for _, l := range t.Links {
			adj[l.A] = append(adj[l.A], l.B)
			adj[l.B] = append(adj[l.B], l.A)
		}
		reach := make([]bool, n)
		reach[0] = true
		queue := []int{0}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, v := range adj[u] {
				if !reach[v] {
					reach[v] = true
					queue = append(queue, v)
				}
			}
		}
		for v, ok := range reach {
			if !ok {
				return topoError(fmt.Sprintf("%s is unreachable from socket 0", t.NodeName(v)))
			}
		}
	}
	return nil
}

// NodeName names node v for messages and link labels: sockets are
// "s0".."sN", switches "x0".."xM".
func (t *Topology) NodeName(v int) string {
	if v < len(t.Sockets) {
		return fmt.Sprintf("s%d", v)
	}
	return fmt.Sprintf("x%d", v-len(t.Sockets))
}

// Canonical returns the deterministic content encoding of the topology,
// used by the experiment harness's RunKey so persisted results are
// keyed by the exact fabric they were simulated on. Zero (inherited)
// values encode as zeros: the inherited Config defaults are already in
// the key separately.
func (t *Topology) Canonical() string {
	return string(t.AppendCanonical(nil))
}

// AppendCanonical appends the Canonical encoding to b and returns the
// extended buffer. The encoding is part of every persisted RunKey, so
// it must not change without a cache schema bump: integers are written
// as %d formats them and floats as %g.
func (t *Topology) AppendCanonical(b []byte) []byte {
	b = appendInt(b, "n", len(t.Sockets))
	b = appendInt(b, ".x", t.Switches)
	for i, s := range t.Sockets {
		if s == (SocketSpec{}) {
			continue
		}
		b = appendInt(b, ".s", i)
		b = appendInt(b, ":", s.SMs)
		b = appendInt(b, "/", s.L2Bytes)
		b = appendFloat(b, "/", s.DRAMBandwidth)
		b = appendInt(b, "/", s.DRAMLatency)
		b = appendInt(b, "/", s.Weight)
	}
	for _, l := range t.Links {
		b = appendInt(b, ".l", l.A)
		b = appendInt(b, "-", l.B)
		b = appendInt(b, ":", l.LanesAB)
		b = appendInt(b, "/", l.LanesBA)
		b = appendFloat(b, "/", l.LaneBandwidth)
		b = appendInt(b, "/", l.LatencyAB)
		b = appendInt(b, "/", l.LatencyBA)
		b = appendInt(b, "/", l.HopsAB)
		b = appendInt(b, "/", l.HopsBA)
	}
	return b
}

// appendInt appends sep and v as %d formats it.
func appendInt(b []byte, sep string, v int) []byte {
	return strconv.AppendInt(append(b, sep...), int64(v), 10)
}

// appendFloat appends sep and v as %g formats it.
func appendFloat(b []byte, sep string, v float64) []byte {
	return strconv.AppendFloat(append(b, sep...), v, 'g', -1, 64)
}

// Parse decodes and validates a JSON topology (see docs/TOPOLOGY.md for
// the schema). Unknown fields are rejected so typos fail loudly.
func Parse(data []byte) (*Topology, error) {
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	var t Topology
	if err := dec.Decode(&t); err != nil {
		return nil, fmt.Errorf("topo: parse: %w", err)
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// Crossbar synthesizes the paper's symmetric crossbar as an explicit
// star: one central switch node, one link per socket. The socket→switch
// direction carries the first half of the one-way link latency and one
// switch hop; the switch→socket direction carries the remainder and no
// hop, so a src→dst message is charged exactly
//
//	latency/2 (egress) + SwitchLatency + latency-latency/2 (ingress)
//
// — the event schedule of the pre-topology fabric, byte for byte. An
// arch.Config with a nil Topology routes over this synthesis.
func Crossbar(sockets, lanesPerDir int, laneBW float64, linkLatency int) *Topology {
	t := &Topology{Sockets: make([]SocketSpec, sockets), Switches: 1}
	sw := sockets
	half := linkLatency / 2
	for i := 0; i < sockets; i++ {
		t.Links = append(t.Links, LinkSpec{
			A: i, B: sw,
			LanesAB: lanesPerDir, LanesBA: lanesPerDir,
			LaneBandwidth: laneBW,
			LatencyAB:     half, LatencyBA: linkLatency - half,
			HopsAB: 1, HopsBA: 0,
		})
	}
	return t
}

type topoError string

func (e topoError) Error() string { return "topo: invalid topology: " + string(e) }
