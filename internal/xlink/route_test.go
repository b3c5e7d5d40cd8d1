package xlink

import (
	"testing"

	"repro/internal/arch"
	"repro/internal/sim"
	"repro/internal/topo"
)

// lineTopoConfig is a 3-socket line (0—1—2) with hand-picked per-edge
// parameters so multi-hop charges can be asserted cycle-exactly.
func lineTopoConfig() arch.Config {
	cfg := arch.TestConfig()
	cfg.Sockets = 3
	cfg.SwitchLatency = 16
	cfg.Topology = &topo.Topology{
		Sockets: make([]topo.SocketSpec, 3),
		Links: []topo.LinkSpec{
			// 2 B/cycle, 10-cycle wire, one switch hop after delivery.
			{A: 0, B: 1, LanesAB: 2, LanesBA: 2, LaneBandwidth: 1, LatencyAB: 10, LatencyBA: 10, HopsAB: 1, HopsBA: 1},
			// 4 B/cycle, 20-cycle wire, no hop.
			{A: 1, B: 2, LanesAB: 4, LanesBA: 4, LaneBandwidth: 1, LatencyAB: 20, LatencyBA: 20},
		},
	}
	return cfg
}

// TestMultiHopLatencyAccounting pins the exact delivery cycle of a
// two-link route: serialization + wire latency per link, plus the
// switch-hop charge between them.
func TestMultiHopLatencyAccounting(t *testing.T) {
	eng := sim.New()
	f := NewFabric(eng, lineTopoConfig())
	var at sim.Time
	f.RouteArg(0, 2, 128, eng.Bind(func(now sim.Time, _ int) { at = now }), 0)
	eng.Run()
	// Link 0-1: 128B at 2 B/c = 64 cycles + 10 wire = 74.
	// Switch hop: +16 = 90.
	// Link 1-2: starts at 90, 128B at 4 B/c = 32 cycles -> 122 + 20 wire = 142.
	if at != 142 {
		t.Fatalf("delivery at %d, want 142", at)
	}
	// Both traversed links carry the bytes; per-direction accounting.
	if f.LinkAt(0).Sent[Egress].Value() != 128 || f.LinkAt(1).Sent[Egress].Value() != 128 {
		t.Fatalf("egress bytes %d/%d, want 128/128",
			f.LinkAt(0).Sent[Egress].Value(), f.LinkAt(1).Sent[Egress].Value())
	}
	// And the reverse route uses the Ingress directions.
	f.RouteArg(2, 0, 64, 0, 0)
	eng.Run()
	if f.LinkAt(0).Sent[Ingress].Value() != 64 || f.LinkAt(1).Sent[Ingress].Value() != 64 {
		t.Fatal("reverse route must use the B→A directions")
	}
}

// TestDeterministicPathSelection: with two equal-cost equal-length
// routes, the fabric must deterministically prefer the one through the
// lower-numbered node.
func TestDeterministicPathSelection(t *testing.T) {
	cfg := arch.TestConfig()
	cfg.Sockets = 4
	mk := func(a, b int) topo.LinkSpec {
		return topo.LinkSpec{A: a, B: b, LanesAB: 2, LanesBA: 2, LaneBandwidth: 1, LatencyAB: 10, LatencyBA: 10}
	}
	// Diamond: 0→3 via 1 or via 2, identical costs.
	cfg.Topology = &topo.Topology{
		Sockets: make([]topo.SocketSpec, 4),
		Links:   []topo.LinkSpec{mk(0, 1), mk(1, 3), mk(0, 2), mk(2, 3)},
	}
	for i := 0; i < 3; i++ {
		f := NewFabric(sim.New(), cfg)
		got := f.PathLinks(0, 3)
		if len(got) != 2 || got[0] != 0 || got[1] != 1 {
			t.Fatalf("path 0→3 = %v, want [0 1] (via socket 1)", got)
		}
	}
	// Shorter-hop routes beat equal-latency longer ones: direct link
	// with the same total latency as the two-hop route must win.
	cfg.Topology.Links = append(cfg.Topology.Links,
		topo.LinkSpec{A: 0, B: 3, LanesAB: 1, LanesBA: 1, LaneBandwidth: 1, LatencyAB: 20, LatencyBA: 20})
	f := NewFabric(sim.New(), cfg)
	if got := f.PathLinks(0, 3); len(got) != 1 || got[0] != 4 {
		t.Fatalf("path 0→3 = %v, want [4] (direct, fewer edges)", got)
	}
}

// TestCrossbarPathsMatchLegacyStar: the synthesized crossbar routes
// every socket pair as src-link then dst-link, the legacy schedule.
func TestCrossbarPathsMatchLegacyStar(t *testing.T) {
	cfg := arch.TestConfig()
	f := NewFabric(sim.New(), cfg)
	for src := 0; src < cfg.Sockets; src++ {
		for dst := 0; dst < cfg.Sockets; dst++ {
			if src == dst {
				continue
			}
			got := f.PathLinks(arch.SocketID(src), arch.SocketID(dst))
			if len(got) != 2 || got[0] != src || got[1] != dst {
				t.Fatalf("path %d→%d = %v, want [%d %d]", src, dst, got, src, dst)
			}
		}
	}
}

// TestRouteAllocFree: the steady-state routing datapath — loopback and
// multi-hop, with and without a continuation — must not allocate per
// message. The loopback path used to build a per-message adapter
// closure; this pins the fix.
func TestRouteAllocFree(t *testing.T) {
	eng := sim.New()
	f := NewFabric(eng, arch.TestConfig())
	var delivered int
	done := eng.Bind(func(sim.Time, int) { delivered++ })

	// Warm the route-record pool, the engine's event storage, and the
	// servers.
	for i := 0; i < 64; i++ {
		f.RouteArg(0, 2, 128, done, 0)
		f.RouteArg(2, 1, 128, done, 7)
		f.RouteArg(1, 1, 64, done, 0)
		f.RouteArg(3, 3, 64, done, 7)
	}
	eng.Run()

	allocs := testing.AllocsPerRun(100, func() {
		f.RouteArg(0, 2, 128, done, 0)
		f.RouteArg(2, 1, 128, done, 7)
		f.RouteArg(1, 1, 64, done, 0)
		f.RouteArg(3, 3, 64, done, 7)
		f.RouteArg(0, 3, 256, 0, 0)
		eng.Run()
	})
	if allocs != 0 {
		t.Fatalf("routing datapath allocates %.1f/op, want 0", allocs)
	}
	if delivered == 0 {
		t.Fatal("callbacks never fired")
	}
}

// TestAsymmetricLinkDesign: per-direction lane counts and latencies are
// honoured, and ResetDesign restores the asymmetric design point, not a
// symmetric split.
func TestAsymmetricLinkDesign(t *testing.T) {
	eng := sim.New()
	l := NewLinkAsym(eng, 6, 2, 1, 5, 9, 100)
	if l.Lanes(Egress) != 6 || l.Lanes(Ingress) != 2 || l.TotalLanes() != 8 {
		t.Fatalf("design lanes %d/%d of %d", l.Lanes(Egress), l.Lanes(Ingress), l.TotalLanes())
	}
	var at sim.Time
	l.SendArg(Ingress, 2, eng.Bind(func(now sim.Time, _ int) { at = now }), 0)
	eng.Run()
	if at != 10 { // 2B at 2 B/c = 1 cycle + 9 wire
		t.Fatalf("ingress delivery at %d, want 10", at)
	}
	l.TurnLane(Egress, Ingress)
	l.TurnLane(Egress, Ingress)
	l.ResetDesign()
	if l.Lanes(Egress) != 6 || l.Lanes(Ingress) != 2 {
		t.Fatal("ResetDesign must restore the asymmetric design split")
	}
	if l.Bandwidth(Egress) != 6 || l.Bandwidth(Ingress) != 2 {
		t.Fatal("ResetDesign must restore design bandwidths")
	}
}

// TestPortIngressBandwidth sums inbound capacity over every incident
// link, in the direction pointing at the socket.
func TestPortIngressBandwidth(t *testing.T) {
	eng := sim.New()
	f := NewFabric(eng, lineTopoConfig())
	// Socket 1 sits on both links: inbound 0→1 (2 B/c) + 2→1 (4 B/c).
	if got := f.Port(1).IngressBandwidth(); got != 6 {
		t.Fatalf("socket 1 ingress bandwidth %v, want 6", got)
	}
	// Socket 0 receives only over link 0 in the B→A direction.
	if got := f.Port(0).IngressBandwidth(); got != 2 {
		t.Fatalf("socket 0 ingress bandwidth %v, want 2", got)
	}
}
