package xlink

import (
	"testing"

	"repro/internal/sim"
)

// clock hands out successive 1000-cycle window boundaries; the fire-
// and-forget sends below schedule no events, so window time must be
// tracked explicitly rather than via the engine clock.
type clock struct{ at sim.Time }

// drive pushes bytes into both directions, advances one window, and
// steps the balancer at its boundary.
func (c *clock) drive(eng *sim.Engine, l *Link, b *Balancer, egress, ingress int) {
	l.SendArg(Egress, egress, 0, 0)
	l.SendArg(Ingress, ingress, 0, 0)
	c.at += 1000
	eng.RunUntil(c.at)
	b.Step(c.at)
}

func newBalancedLink() (*sim.Engine, *Link, *Balancer, *clock) {
	eng := sim.New()
	l := NewLink(eng, 8, 1, 0, 10) // 8 B/c per direction, no latency
	b := NewBalancer(l, 1000)
	l.ResetWindow(0)
	return eng, l, b, &clock{}
}

func TestBalancerStealsForSaturatedEgress(t *testing.T) {
	eng, l, b, ck := newBalancedLink()
	// Window capacity is 8000 bytes. Egress saturated, ingress idle.
	// Window 1 seeds the EWMA (observe only), then two confirming
	// windows are needed for the first turn.
	for i := 0; i < 4; i++ {
		ck.drive(eng, l, b, 8000, 100)
	}
	if l.Lanes(Egress) <= 8 {
		t.Fatalf("egress lanes %d, want > 8 after sustained saturation", l.Lanes(Egress))
	}
	if b.Reconfigs.Value() == 0 {
		t.Fatal("reconfigs counter must advance")
	}
}

func TestBalancerStealsForSaturatedIngress(t *testing.T) {
	eng, l, b, ck := newBalancedLink()
	for i := 0; i < 4; i++ {
		ck.drive(eng, l, b, 100, 8000)
	}
	if l.Lanes(Ingress) <= 8 {
		t.Fatalf("ingress lanes %d, want > 8", l.Lanes(Ingress))
	}
}

func TestBalancerIgnoresSymmetricSaturation(t *testing.T) {
	eng, l, b, ck := newBalancedLink()
	for i := 0; i < 6; i++ {
		ck.drive(eng, l, b, 8000, 8000)
	}
	if l.Lanes(Egress) != 8 || l.Lanes(Ingress) != 8 {
		t.Fatalf("lanes %d/%d, symmetric saturation must not reconfigure",
			l.Lanes(Egress), l.Lanes(Ingress))
	}
}

func TestBalancerIdleDoesNothing(t *testing.T) {
	eng, l, b, ck := newBalancedLink()
	for i := 0; i < 6; i++ {
		ck.drive(eng, l, b, 10, 10)
	}
	if b.Reconfigs.Value() != 0 {
		t.Fatal("idle link must not reconfigure")
	}
}

func TestBalancerEqualizesWhenBothSaturate(t *testing.T) {
	eng, l, b, ck := newBalancedLink()
	// Drive asymmetric long enough to move two lanes.
	for i := 0; i < 8; i++ {
		ck.drive(eng, l, b, 9000, 100)
	}
	stolen := l.Lanes(Egress)
	if stolen <= 8 {
		t.Fatal("precondition failed: no lanes stolen")
	}
	// Now both directions saturate: expect drift back toward 8/8.
	for i := 0; i < 12; i++ {
		ck.drive(eng, l, b, 16000, 16000)
	}
	if l.Lanes(Egress) != 8 {
		t.Fatalf("egress lanes %d, want 8 after equalization", l.Lanes(Egress))
	}
}

func TestBalancerFirstWindowObservesOnly(t *testing.T) {
	eng, l, b, ck := newBalancedLink()
	ck.drive(eng, l, b, 8000, 0) // pure ramp-up asymmetry
	if b.Reconfigs.Value() != 0 {
		t.Fatal("first window after reset must not reconfigure")
	}
}

func TestBalancerResetState(t *testing.T) {
	eng, l, b, ck := newBalancedLink()
	for i := 0; i < 3; i++ {
		ck.drive(eng, l, b, 8000, 100)
	}
	b.ResetState()
	l.ResetDesign()
	// After reset, one asymmetric window must not trigger (seeding
	// again + persistence).
	ck.drive(eng, l, b, 8000, 100)
	ck.drive(eng, l, b, 8000, 100)
	if l.Lanes(Egress) != 8 {
		t.Fatal("turns must not fire within two windows of a reset")
	}
}

func TestBalancerStartStop(t *testing.T) {
	eng := sim.New()
	l := NewLink(eng, 8, 1, 0, 10)
	b := NewBalancer(l, 500)
	b.Start(eng)
	// Saturate egress continuously for 5 windows.
	for w := 0; w < 5; w++ {
		eng.Schedule(sim.Time(w*500), func(sim.Time) { l.SendArg(Egress, 4000, 0, 0) })
	}
	eng.RunUntil(2500)
	b.Stop()
	eng.Run() // must drain: the stopped balancer stops rescheduling
	if eng.Pending() != 0 {
		t.Fatal("stopped balancer left events queued")
	}
	if b.Decisions.Value() == 0 {
		t.Fatal("balancer never sampled")
	}
}

func TestDonorCanSpare(t *testing.T) {
	cases := []struct {
		util  float64
		lanes int
		want  bool
	}{
		{0.1, 8, true},
		{0.82, 8, true},  // 0.82×8/7 = 0.937 < 0.95
		{0.84, 8, false}, // 0.84×8/7 = 0.96 ≥ 0.95
		{0.5, 1, false},  // last lane is never spared
		{0.4, 2, true},
		{0.5, 2, false}, // 0.5×2 = 1.0
	}
	for _, tc := range cases {
		if got := donorCanSpare(tc.util, tc.lanes); got != tc.want {
			t.Errorf("donorCanSpare(%v, %d) = %v, want %v", tc.util, tc.lanes, got, tc.want)
		}
	}
}

func TestBalancerRecoversStuckAsymmetry(t *testing.T) {
	eng, l, b, ck := newBalancedLink()
	// Force a 10/6 split, then present ingress-saturated traffic with
	// egress at ~0.9 (too hot to pass donorCanSpare, but egress holds
	// the majority so the turn toward symmetric must still happen).
	l.TurnLane(Ingress, Egress)
	l.TurnLane(Ingress, Egress)
	eng.Run()
	for i := 0; i < 6; i++ {
		ck.drive(eng, l, b, 9000, 6000) // egress 9000/10000=0.9, ingress 6000/6000=1.0
	}
	if l.Lanes(Ingress) <= 6 {
		t.Fatalf("ingress lanes %d, want recovery toward symmetric", l.Lanes(Ingress))
	}
}
