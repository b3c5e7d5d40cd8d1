package sim

// Engine microbenchmarks: every benchmark executes exactly one event
// per iteration, so ns/op is ns/event and allocs/op is allocs/event,
// and events/sec = 1e9 / (ns/op). scripts/bench.sh parses these into
// BENCH_sim.json. The BenchmarkReference* twins run the same pattern on
// the original container/heap scheduler — the baseline the calendar
// queue must beat ≥2× on the steady-state path.

import "testing"

// The benchmarks schedule bound handlers, as every model component
// on the hot path does; closures go through the side table, which
// only tickers, lane turns and tests use.

// warmup grows the event slab past the largest burst any benchmark
// queues, so the measured loop reuses free records: the engine's hot
// path is allocation-free only once warmed, exactly like a long
// simulation.
func warmup(e *Engine) {
	h := e.Bind(func(Time, int) {})
	for i := 0; i < 1024; i++ {
		e.ScheduleArg(Time(i%64)+1, h, 0)
	}
	e.Run()
}

// BenchmarkEngineSteadyState is the hottest real pattern: a
// self-rescheduling +1-cycle tick, the shape of the SM issue loop.
func BenchmarkEngineSteadyState(b *testing.B) {
	e := New()
	warmup(e)
	n := 0
	var tick Handler
	tick = e.Bind(func(Time, int) {
		n++
		if n < b.N {
			e.ScheduleArg(1, tick, 0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleArg(1, tick, 0)
	e.Run()
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(b.N)/s, "events/sec")
	}
}

func BenchmarkReferenceEngineSteadyState(b *testing.B) {
	e := NewReference()
	n := 0
	var tick Handler
	tick = e.Bind(func(Time, int) {
		n++
		if n < b.N {
			e.ScheduleArg(1, tick, 0)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.ScheduleArg(1, tick, 0)
	e.Run()
}

// benchBursts queues bursts of at most burst events, the i-th of each
// at delays[i&(len(delays)-1)] (len(delays) is a power of two), and
// drains each burst before the next.
func benchBursts(b *testing.B, e *Engine, burst int, delays []Time) {
	warmup(e)
	h := e.Bind(func(Time, int) {})
	mask := len(delays) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := burst
		if b.N-done < n {
			n = b.N - done
		}
		for i := 0; i < n; i++ {
			e.ScheduleArg(delays[i&mask], h, i)
		}
		e.Run()
		done += n
	}
}

// benchRefBursts is benchBursts on the reference engine.
func benchRefBursts(b *testing.B, e *ReferenceEngine, burst int, delays []Time) {
	h := e.Bind(func(Time, int) {})
	mask := len(delays) - 1
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := burst
		if b.N-done < n {
			n = b.N - done
		}
		for i := 0; i < n; i++ {
			e.ScheduleArg(delays[i&mask], h, i)
		}
		e.Run()
		done += n
	}
}

// delaySpan returns n consecutive delays starting at lo.
func delaySpan(lo Time, n int) []Time {
	d := make([]Time, n)
	for i := range d {
		d[i] = lo + Time(i)
	}
	return d
}

// mixedDelays is the cache/NoC/DRAM latency mix.
var mixedDelays = []Time{1, 12, 28, 64, 96, 100, 128, 200}

// BenchmarkEngineMixedDelays schedules bursts across a spread of small
// constant delays — the cache/NoC/DRAM latency mix — and drains them.
func BenchmarkEngineMixedDelays(b *testing.B) { benchBursts(b, New(), 512, mixedDelays) }

func BenchmarkReferenceEngineMixedDelays(b *testing.B) {
	benchRefBursts(b, NewReference(), 512, mixedDelays)
}

// BenchmarkEngineSameCycleFIFO measures the zero-delay FIFO path: many
// events piling onto the current cycle (warp wakeups, MSHR fanout).
func BenchmarkEngineSameCycleFIFO(b *testing.B) { benchBursts(b, New(), 256, []Time{0}) }

// BenchmarkEngineScheduleArg measures the pooled typed-event path used
// by the SM warp wakeups: one bound handler, varying arg.
func BenchmarkEngineScheduleArg(b *testing.B) { benchBursts(b, New(), 256, delaySpan(1, 32)) }

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

// BenchmarkEngineSchedule measures the side-table path: one closure
// rescheduling itself through Schedule every cycle, as a Ticker does.
// The side table is warmed first, so a warm engine's closures must
// cost no allocation either.
func BenchmarkEngineSchedule(b *testing.B) {
	e := New()
	warmup(e)
	e.Schedule(1, func(Time) {})
	e.Run()
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

// BenchmarkEngineBacklog measures a standing backlog of far events:
// 256 in flight, each rescheduling itself with the next delay of the
// measured 1K–64K-cycle mix. With a 1,024-cycle ring every one of these
// went to the heap; the 2^16-cycle ring keeps them in per-cycle lists
// and the occupancy index skips the empty cycles between them.
func BenchmarkEngineBacklog(b *testing.B) {
	e := New()
	warmup(e)
	n, k := 0, 0
	var h Handler
	h = e.Bind(func(Time, int) {
		if n < b.N {
			e.ScheduleArg(backlogDelays[k&63], h, 0)
			n++
			k += 7 // co-prime with 64: cycle through the mix
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < 256 && n < b.N; i++ {
		e.Call(h, 0)
	}
	e.Run()
}

// BenchmarkEngineFarFuture measures the overflow-heap path: every delay
// beyond the ring window (events more than 65,536 cycles ahead). Its
// slab is not warmed, as before.
func BenchmarkEngineFarFuture(b *testing.B) {
	e := New()
	h := e.Bind(func(Time, int) {})
	far := delaySpan(ringSize, 1024)
	b.ReportAllocs()
	b.ResetTimer()
	for done := 0; done < b.N; {
		n := 256
		if b.N-done < n {
			n = b.N - done
		}
		for i := 0; i < n; i++ {
			e.ScheduleArg(far[i&1023], h, i)
		}
		e.Run()
		done += n
	}
}

func BenchmarkReferenceEngineFarFuture(b *testing.B) {
	benchRefBursts(b, NewReference(), 256, delaySpan(ringSize, 1024))
}
