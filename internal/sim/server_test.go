package sim

import (
	"testing"
	"testing/quick"
)

// send transfers size bytes through s and runs fn on completion; a
// nil fn is fire-and-forget traffic.
func send(s *Server, size int, fn Event) Time {
	if fn == nil {
		return s.TransferArg(size, 0, 0)
	}
	return s.TransferArg(size, s.eng.Bind(func(now Time, _ int) { fn(now) }), 0)
}

func TestServerSerialization(t *testing.T) {
	e := New()
	s := NewServer(e, 10, 0) // 10 B/cycle, no latency
	var done []Time
	for i := 0; i < 3; i++ {
		send(s, 100, func(now Time) { done = append(done, now) })
	}
	e.Run()
	// Each 100B transfer takes 10 cycles; back to back: 10, 20, 30.
	want := []Time{10, 20, 30}
	for i := range want {
		if done[i] != want[i] {
			t.Fatalf("completions %v, want %v", done, want)
		}
	}
}

func TestServerLatency(t *testing.T) {
	e := New()
	s := NewServer(e, 10, 50)
	var at Time
	send(s, 100, func(now Time) { at = now })
	e.Run()
	if at != 60 {
		t.Fatalf("completion at %d, want 60 (10 serialize + 50 latency)", at)
	}
}

// TestServerSubCycleMessages is the regression test for the bottleneck
// found during bring-up: many small messages must share one cycle of a
// wide resource instead of serializing at one message per cycle.
func TestServerSubCycleMessages(t *testing.T) {
	e := New()
	s := NewServer(e, 256, 0)
	n := 0
	for i := 0; i < 64; i++ {
		send(s, 32, func(Time) { n++ })
	}
	e.Run()
	// 64 × 32B = 2048B at 256 B/cycle = 8 cycles, not 64.
	if e.Now() > 9 {
		t.Fatalf("64 32B messages took %d cycles on a 256 B/c pipe, want ≈8", e.Now())
	}
	if n != 64 {
		t.Fatalf("%d completions, want 64", n)
	}
}

func TestServerIdleGapResets(t *testing.T) {
	e := New()
	s := NewServer(e, 10, 0)
	var second Time
	send(s, 100, nil) // busy until 10
	e.Schedule(100, func(Time) {
		send(s, 50, func(now Time) { second = now })
	})
	e.Run()
	if second != 105 {
		t.Fatalf("transfer after idle gap completed at %d, want 105", second)
	}
}

func TestServerSetBandwidth(t *testing.T) {
	e := New()
	s := NewServer(e, 10, 0)
	var first, second Time
	send(s, 100, func(now Time) { first = now })
	e.Schedule(20, func(Time) {
		s.SetBandwidth(100)
		send(s, 100, func(now Time) { second = now })
	})
	e.Run()
	if first != 10 {
		t.Fatalf("first at %d, want 10", first)
	}
	if second != 21 {
		t.Fatalf("second at %d, want 21 (1 cycle at 100 B/c)", second)
	}
}

func TestServerZeroBandwidth(t *testing.T) {
	e := New()
	s := NewServer(e, 0, 5)
	var at Time
	send(s, 1000, func(now Time) { at = now })
	e.Run()
	if at != 5 {
		t.Fatalf("zero-bandwidth server should only pay latency, got %d", at)
	}
}

// TestPropertyThroughput: the total time for N back-to-back transfers
// never beats size/bandwidth and never exceeds it by more than one
// cycle per transfer (ceiling effects).
func TestPropertyThroughput(t *testing.T) {
	f := func(sizes []uint16) bool {
		e := New()
		bw := 64.0
		s := NewServer(e, bw, 0)
		total := 0
		for _, sz := range sizes {
			size := int(sz%2000) + 1
			total += size
			send(s, size, nil)
		}
		var last Time
		send(s, 1, func(now Time) { last = now })
		e.Run()
		min := Time(float64(total+1) / bw)
		max := min + Time(len(sizes)) + 2
		return last >= min && last <= max
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyCompletionMonotonic: completions are reported in the
// order transfers were submitted.
func TestPropertyCompletionMonotonic(t *testing.T) {
	f := func(sizes []uint8, latency uint8) bool {
		e := New()
		s := NewServer(e, 3, int(latency))
		var times []Time
		for _, sz := range sizes {
			send(s, int(sz)+1, func(now Time) { times = append(times, now) })
		}
		e.Run()
		for i := 1; i < len(times); i++ {
			if times[i] < times[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// TestTransferArgMatchesTransfer pins that the pooled-continuation
// transfer's handler runs exactly when the transfer it models completes
// — the time TransferArg returns: serialization behind a backlog, then
// latency — with the argument delivered intact, and that a zero handler
// queues no event at all.
func TestTransferArgMatchesTransfer(t *testing.T) {
	e := New()
	s := NewServer(e, 2, 7)
	if got := s.TransferArg(64, 0, 0); got != 39 { // backlog: busy until 32
		t.Fatalf("backlog transfer completes at %d, want 39", got)
	}
	if e.Pending() != 0 {
		t.Fatalf("zero handler queued %d events, want none", e.Pending())
	}
	var at Time
	h := e.Bind(func(now Time, arg int) {
		if arg != 99 {
			t.Fatalf("arg %d, want 99", arg)
		}
		at = now
	})
	want := s.TransferArg(32, h, 99)
	e.Run()
	if want != 32+16+7 || at != want {
		t.Fatalf("TransferArg returned %d and completed at %d, want %d for both", want, at, 32+16+7)
	}
}
