package xlink

import (
	"testing"
	"testing/quick"

	"repro/internal/arch"
	"repro/internal/sim"
)

func newTestLink(eng *sim.Engine) *Link {
	// 8 lanes per direction × 1 B/cycle, 128-cycle one-way, 100-cycle turn.
	return NewLink(eng, 8, 1, 128, 100)
}

func TestLinkDefaults(t *testing.T) {
	eng := sim.New()
	l := newTestLink(eng)
	if l.Lanes(Egress) != 8 || l.Lanes(Ingress) != 8 {
		t.Fatal("default lanes must be symmetric")
	}
	if l.TotalLanes() != 16 {
		t.Fatal("total lanes wrong")
	}
	if l.Bandwidth(Egress) != 8 {
		t.Fatalf("egress bandwidth %v, want 8", l.Bandwidth(Egress))
	}
}

func TestLinkSendLatency(t *testing.T) {
	eng := sim.New()
	l := newTestLink(eng)
	var at sim.Time
	l.SendArg(Egress, 8, eng.Bind(func(now sim.Time, _ int) { at = now }), 0)
	eng.Run()
	// 8B at 8 B/c = 1 cycle + 64 cycles (half of 128 one-way).
	if at != 65 {
		t.Fatalf("delivery at %d, want 65", at)
	}
	if l.Sent[Egress].Value() != 8 {
		t.Fatal("egress byte counter wrong")
	}
}

func TestTurnLane(t *testing.T) {
	eng := sim.New()
	l := newTestLink(eng)
	if !l.TurnLane(Ingress, Egress) {
		t.Fatal("turn must succeed")
	}
	if l.Lanes(Egress) != 9 || l.Lanes(Ingress) != 7 {
		t.Fatalf("lanes %d/%d, want 9/7", l.Lanes(Egress), l.Lanes(Ingress))
	}
	// Donor loses bandwidth immediately.
	if l.Bandwidth(Ingress) != 7 {
		t.Fatalf("ingress bandwidth %v, want 7 immediately", l.Bandwidth(Ingress))
	}
	// Receiver gains only after the switch time.
	if l.Bandwidth(Egress) != 8 {
		t.Fatalf("egress bandwidth %v, want 8 before switch completes", l.Bandwidth(Egress))
	}
	eng.Run()
	if l.Bandwidth(Egress) != 9 {
		t.Fatalf("egress bandwidth %v, want 9 after switch", l.Bandwidth(Egress))
	}
	if l.Turns.Value() != 1 {
		t.Fatal("turn counter wrong")
	}
}

func TestTurnLaneMinimumOne(t *testing.T) {
	eng := sim.New()
	l := newTestLink(eng)
	for i := 0; i < 7; i++ {
		if !l.TurnLane(Ingress, Egress) {
			t.Fatalf("turn %d must succeed", i)
		}
	}
	if l.TurnLane(Ingress, Egress) {
		t.Fatal("last ingress lane must never be turned")
	}
	if l.Lanes(Ingress) != 1 || l.Lanes(Egress) != 15 {
		t.Fatalf("lanes %d/%d, want 15/1", l.Lanes(Egress), l.Lanes(Ingress))
	}
}

func TestTurnLaneSelfRejected(t *testing.T) {
	eng := sim.New()
	l := newTestLink(eng)
	if l.TurnLane(Egress, Egress) {
		t.Fatal("self-turn must be rejected")
	}
}

func TestResetDesign(t *testing.T) {
	eng := sim.New()
	l := newTestLink(eng)
	l.TurnLane(Ingress, Egress)
	l.TurnLane(Ingress, Egress)
	l.ResetDesign()
	if l.Lanes(Egress) != 8 || l.Lanes(Ingress) != 8 {
		t.Fatal("reset must restore symmetry")
	}
	if l.Bandwidth(Egress) != 8 || l.Bandwidth(Ingress) != 8 {
		t.Fatal("reset must restore bandwidth immediately")
	}
	// The pending turn completion from before the reset must not
	// clobber the restored bandwidth.
	eng.Run()
	if l.Bandwidth(Egress) != 8 {
		t.Fatalf("stale turn completion resurfaced: egress %v", l.Bandwidth(Egress))
	}
}

func TestUtilizationWindows(t *testing.T) {
	eng := sim.New()
	l := newTestLink(eng)
	l.ResetWindow(0)
	l.SendArg(Egress, 400, 0, 0)
	eng.Run()
	// 400B over 100 cycles at 8 B/c = 0.5.
	if u := l.Utilization(Egress, 100); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization %v, want 0.5", u)
	}
	if u := l.Utilization(Ingress, 100); u != 0 {
		t.Fatal("idle direction must read 0")
	}
	l.ResetWindow(100)
	if u := l.Utilization(Egress, 200); u != 0 {
		t.Fatal("fresh window must read 0")
	}
}

// TestPropertyLaneConservation: any sequence of turns and resets keeps
// the total lane count and at least one lane per direction.
func TestPropertyLaneConservation(t *testing.T) {
	f := func(ops []uint8) bool {
		eng := sim.New()
		l := newTestLink(eng)
		for _, op := range ops {
			switch op % 4 {
			case 0:
				l.TurnLane(Ingress, Egress)
			case 1:
				l.TurnLane(Egress, Ingress)
			case 2:
				l.ResetDesign()
			case 3:
				eng.Step()
			}
			if l.Lanes(Egress)+l.Lanes(Ingress) != 16 {
				return false
			}
			if l.Lanes(Egress) < 1 || l.Lanes(Ingress) < 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFabricRoute(t *testing.T) {
	eng := sim.New()
	cfg := arch.TestConfig()
	f := NewFabric(eng, cfg)
	if f.NumLinks() != cfg.Sockets {
		t.Fatalf("links %d, want %d", f.NumLinks(), cfg.Sockets)
	}
	var at sim.Time
	f.RouteArg(0, 2, 128, eng.Bind(func(now sim.Time, _ int) { at = now }), 0)
	eng.Run()
	min := sim.Time(cfg.LinkLatency + cfg.SwitchLatency)
	if at < min {
		t.Fatalf("delivery at %d, faster than latency floor %d", at, min)
	}
	// Bytes appear on src egress and dst ingress.
	if f.LinkAt(0).Sent[Egress].Value() != 128 {
		t.Fatal("source egress bytes missing")
	}
	if f.LinkAt(2).Sent[Ingress].Value() != 128 {
		t.Fatal("destination ingress bytes missing")
	}
	if f.TotalBytes() != 256 {
		t.Fatalf("fabric total %d, want 256", f.TotalBytes())
	}
}

func TestFabricLoopback(t *testing.T) {
	eng := sim.New()
	f := NewFabric(eng, arch.TestConfig())
	ran := false
	f.RouteArg(1, 1, 64, eng.Bind(func(sim.Time, int) { ran = true }), 0)
	eng.Run()
	if !ran {
		t.Fatal("loopback route must still deliver")
	}
	if f.LinkAt(1).Sent[Egress].Value() != 0 {
		t.Fatal("loopback must not use the link")
	}
}

func TestFabricResetDesign(t *testing.T) {
	eng := sim.New()
	f := NewFabric(eng, arch.TestConfig())
	f.LinkAt(0).TurnLane(Ingress, Egress)
	f.ResetDesign(0)
	if f.LinkAt(0).Lanes(Egress) != f.LinkAt(0).Lanes(Ingress) {
		t.Fatal("fabric reset must restore all links")
	}
}

// TestPropertyRouteConservation: every routed message adds exactly its
// size to src egress and dst ingress.
func TestPropertyRouteConservation(t *testing.T) {
	f := func(msgs []uint16) bool {
		eng := sim.New()
		fab := NewFabric(eng, arch.TestConfig())
		var wantE, wantI [4]uint64
		for i, m := range msgs {
			src := arch.SocketID(i % 4)
			dst := arch.SocketID((i + 1 + int(m)%3) % 4)
			size := int(m%512) + 1
			fab.RouteArg(src, dst, size, 0, 0)
			wantE[src] += uint64(size)
			wantI[dst] += uint64(size)
		}
		eng.Run()
		for s := 0; s < 4; s++ {
			if fab.LinkAt(s).Sent[Egress].Value() != wantE[s] {
				return false
			}
			if fab.LinkAt(s).Sent[Ingress].Value() != wantI[s] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
