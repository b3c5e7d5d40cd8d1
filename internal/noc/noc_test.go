package noc

import (
	"testing"

	"repro/internal/sim"
)

func TestCrossbarDelivery(t *testing.T) {
	eng := sim.New()
	x := New(eng, 256, 12)
	var at sim.Time
	x.SendArg(128, eng.Bind(func(now sim.Time, _ int) { at = now }), 0)
	eng.Run()
	if at != 13 {
		t.Fatalf("delivery at %d, want 13 (1 serialize + 12 latency)", at)
	}
	if x.Bytes.Total() != 128 {
		t.Fatalf("bytes %d", x.Bytes.Total())
	}
}

func TestCrossbarContention(t *testing.T) {
	eng := sim.New()
	x := New(eng, 16, 0)
	var last sim.Time
	h := eng.Bind(func(now sim.Time, _ int) { last = now })
	for i := 0; i < 10; i++ {
		x.SendArg(160, h, i)
	}
	eng.Run()
	// 1600 bytes at 16 B/cycle = 100 cycles of serialization.
	if last < 100 {
		t.Fatalf("10 transfers finished at %d, want ≥100", last)
	}
}

func TestCrossbarUtilization(t *testing.T) {
	eng := sim.New()
	x := New(eng, 100, 0)
	x.ResetWindow(0)
	x.SendArg(2500, 0, 0)
	eng.Run()
	if u := x.Utilization(50); u < 0.49 || u > 0.51 {
		t.Fatalf("utilization %v, want 0.5", u)
	}
}
