package sim

// Engine microbenchmarks: every benchmark executes exactly one event
// per iteration, so ns/op is ns/event and allocs/op is allocs/event,
// and events/sec = 1e9 / (ns/op). scripts/bench.sh parses these into
// BENCH_sim.json. The BenchmarkReference* twins run the same pattern on
// the original container/heap scheduler — the baseline the calendar
// queue must beat ≥2× on the steady-state path.

import "testing"

// warmup grows the event slab past the largest burst any benchmark
// queues, so the measured loop reuses free records: the engine's hot
// path is allocation-free only once warmed, exactly like a long
// simulation.
func warmup(e *Engine) {
	for i := 0; i < 1024; i++ {
		e.Schedule(Time(i%64)+1, func(Time) {})
	}
	e.Run()
}

// BenchmarkEngineSteadyState is the hottest real pattern: a
// self-rescheduling +1-cycle tick, the shape of the SM issue loop.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := New()
	warmup(e)
	n := 0
	var tick Event
	tick = func(Time) {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(1, tick)
	e.Run()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "events/sec")
	}
}

func BenchmarkReferenceEngineSteadyState(b *testing.B) {
	e := NewReference()
	n := 0
	var tick Event
	tick = func(Time) {
		n++
		if n < b.N {
			e.Schedule(1, tick)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Schedule(1, tick)
	e.Run()
}

// BenchmarkEngineMixedDelays schedules bursts across a spread of small
// constant delays — the cache/NoC/DRAM latency mix — and drains them.
func BenchmarkEngineMixedDelays(b *testing.B) {
	e := New()
	warmup(e)
	delays := [8]Time{1, 12, 28, 64, 96, 100, 128, 200}
	fn := Event(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 512
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.Schedule(delays[i&7], fn)
		}
		e.Run()
		done += burst
	}
}

func BenchmarkReferenceEngineMixedDelays(b *testing.B) {
	e := NewReference()
	delays := [8]Time{1, 12, 28, 64, 96, 100, 128, 200}
	fn := Event(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 512
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.Schedule(delays[i&7], fn)
		}
		e.Run()
		done += burst
	}
}

// BenchmarkEngineSameCycleFIFO measures the zero-delay FIFO path: many
// events piling onto the current cycle (warp wakeups, MSHR fanout).
func BenchmarkEngineSameCycleFIFO(b *testing.B) {
	e := New()
	warmup(e)
	fn := Event(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 256
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.Schedule(0, fn)
		}
		e.Run()
		done += burst
	}
}

// BenchmarkEngineScheduleArg measures the pooled typed-event path used
// by the SM warp wakeups: one long-lived ArgEvent, varying arg.
func BenchmarkEngineScheduleArg(b *testing.B) {
	e := New()
	warmup(e)
	sink := 0
	fn := ArgEvent(func(_ Time, arg int) { sink += arg })
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 256
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.ScheduleArg(Time(i&31)+1, fn, i&63)
		}
		e.Run()
		done += burst
	}
}

// backlogDelays follows the delays the model schedules beyond 1,024
// cycles: bandwidth servers booking completions behind deep backlogs.
// Their measured mix on fig3, fig8 and fig11 at -quick scale is 43% in
// [1K, 2K), 28% in [2K, 4K), 12% in [4K, 8K), 10% in [8K, 16K), 6% in
// [16K, 32K) and 2% in [32K, 64K) cycles; the 64 entries keep those
// shares, spread evenly within each range.
var backlogDelays = func() [64]Time {
	var d [64]Time
	n := 0
	for _, r := range []struct {
		lo   Time
		span Time
		k    int
	}{{1 << 10, 1 << 10, 27}, {2 << 10, 2 << 10, 18}, {4 << 10, 4 << 10, 8}, {8 << 10, 8 << 10, 6}, {16 << 10, 16 << 10, 4}, {32 << 10, 32 << 10, 1}} {
		for j := 0; j < r.k; j++ {
			d[n] = r.lo + r.span*Time(j)/Time(r.k)
			n++
		}
	}
	return d
}()

// BenchmarkEngineBacklog measures a standing backlog of far events:
// 256 in flight, each rescheduling itself with the next delay of the
// measured 1K–64K-cycle mix. With a 1,024-cycle ring every one of these
// went to the heap; the 2^16-cycle ring keeps them in per-cycle lists
// and the occupancy index skips the empty cycles between them.
func BenchmarkEngineBacklog(b *testing.B) {
	e := New()
	warmup(e)
	n, k := 0, 0
	var fn Event
	fn = func(Time) {
		if n < b.N {
			e.Schedule(backlogDelays[k&63], fn)
			n++
			k += 7 // co-prime with 64: cycle through the mix
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 256 && n < b.N; i++ {
		fn(0)
	}
	e.Run()
}

// BenchmarkEngineFarFuture measures the overflow-heap path: every delay
// beyond the ring window (events more than 65,536 cycles ahead).
func BenchmarkEngineFarFuture(b *testing.B) {
	e := New()
	fn := Event(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 256
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.Schedule(ringSize+Time(i&1023), fn)
		}
		e.Run()
		done += burst
	}
}

func BenchmarkReferenceEngineFarFuture(b *testing.B) {
	e := NewReference()
	fn := Event(func(Time) {})
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		burst := 256
		if b.N-done < burst {
			burst = b.N - done
		}
		for i := 0; i < burst; i++ {
			e.Schedule(ringSize+Time(i&1023), fn)
		}
		e.Run()
		done += burst
	}
}
