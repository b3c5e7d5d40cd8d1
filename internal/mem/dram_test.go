package mem

import (
	"testing"

	"repro/internal/sim"
)

func TestDRAMReadWrite(t *testing.T) {
	eng := sim.New()
	d := NewDRAM(eng, 128, 100)
	var readAt, writeAt sim.Time
	d.ReadArg(128, eng.Bind(func(now sim.Time, _ int) { readAt = now }), 0)
	d.WriteArg(256, eng.Bind(func(now sim.Time, _ int) { writeAt = now }), 0)
	eng.Run()
	if readAt != 101 {
		t.Fatalf("read at %d, want 101 (1 serialize + 100 latency)", readAt)
	}
	if writeAt != 103 {
		t.Fatalf("write at %d, want 103 (queued behind read)", writeAt)
	}
	if d.Reads.Value() != 1 || d.Writes.Value() != 1 {
		t.Fatal("op counters wrong")
	}
	if d.Bytes.Total() != 384 {
		t.Fatalf("bytes %d, want 384", d.Bytes.Total())
	}
}

func TestDRAMUtilizationWindow(t *testing.T) {
	eng := sim.New()
	d := NewDRAM(eng, 100, 0)
	d.ResetWindow(0)
	d.ReadArg(5000, 0, 0)
	eng.Run()
	// 5000 bytes over 50 cycles at 100 B/c = utilization 1.0.
	if u := d.Utilization(50); u < 0.99 || u > 1.01 {
		t.Fatalf("utilization %v, want ~1.0", u)
	}
	d.ResetWindow(50)
	if u := d.Utilization(100); u != 0 {
		t.Fatalf("fresh window utilization %v, want 0", u)
	}
	if d.Bandwidth() != 100 {
		t.Fatal("bandwidth accessor wrong")
	}
}
