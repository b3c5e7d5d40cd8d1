package sim

import (
	"math/rand"
	"sync"
	"testing"
)

// checkParallelEquivalence runs 2–4 engines at once, each on its own
// goroutine and each replaying a different rotation of ops, and
// requires every engine's trace, clock, and accounting to equal the
// reference engine's replay of the same rotation. Engines running in
// parallel is how the harness uses this package — every simulation
// owns one Engine, and exp.Runner runs Options.Parallelism of them
// concurrently — so engines may share no mutable state: a handler
// bound on one engine, or a closure waiting in its side table, must
// never run on or be overwritten by another. A shared table or pool
// would interleave the engines' programs and diverge from the
// reference here, and shows up as a data race under -race.
func checkParallelEquivalence(t *testing.T, ops []byte) {
	t.Helper()
	n := 2 + len(ops)%3
	type outcome struct {
		trace []traceEntry
		now   Time
		exec  uint64
		pend  int
	}
	progs := make([][]byte, n)
	for i := range progs {
		k := 0
		if len(ops) > 0 {
			k = i * len(ops) / n
		}
		progs[i] = append(append([]byte{}, ops[k:]...), ops[:k]...)
	}
	got := make([]outcome, n)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := range progs {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			eng := New()
			start.Wait() // release all engines together so they overlap
			tr, now, exec, pend := runProgram(eng, progs[i])
			got[i] = outcome{tr, now, exec, pend}
		}(i)
	}
	start.Done()
	done.Wait()
	for i, prog := range progs {
		rt, rNow, rExec, _ := runProgram(NewReference(), prog)
		diffTraces(t, prog, got[i].trace, rt)
		if got[i].now != rNow || got[i].exec != rExec {
			t.Fatalf("ops %x: engine %d of %d ended at clock %d with %d executed, reference %d and %d",
				prog, i, n, got[i].now, got[i].exec, rNow, rExec)
		}
		if got[i].pend != 0 {
			t.Fatalf("ops %x: engine %d of %d left %d events pending", prog, i, n, got[i].pend)
		}
	}
}

// TestParallelEquivalence differential-tests engines running in
// parallel against the reference heap on a deterministic battery of
// random event programs: however the goroutines interleave, each
// engine must produce exactly the serial reference's execution.
func TestParallelEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	rounds := 150
	if testing.Short() {
		rounds = 40 // the -race PR tier runs -short; nightly runs the full battery
	}
	for round := 0; round < rounds; round++ {
		ops := make([]byte, rng.Intn(300))
		rng.Read(ops)
		checkParallelEquivalence(t, ops)
	}
}

// FuzzParallelEquivalence lets the fuzzer hunt for a program on which
// engines running in parallel disagree with the reference. Run longer
// with: go test -fuzz=FuzzParallelEquivalence ./internal/sim
func FuzzParallelEquivalence(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{6, 0, 7, 50, 6, 1})
	f.Add([]byte{0, 5, 1, 0, 2, 3, 3, 255, 4, 9, 5, 70, 6, 12, 7, 3})
	seed := make([]byte, 64)
	for i := range seed {
		seed[i] = byte(i * 29)
	}
	f.Add(seed)
	f.Fuzz(func(t *testing.T, ops []byte) {
		if len(ops) > 2048 {
			ops = ops[:2048] // bound program size, not coverage
		}
		checkParallelEquivalence(t, ops)
	})
}
