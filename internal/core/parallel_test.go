package core_test

import (
	"reflect"
	"sync"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// shardedRun runs one workload serially, then as shards: the same
// program on that many Systems at once, one goroutine each, the way the
// harness and the sweep workers run a sweep's simulations side by side.
// Every shard's result and event count must equal the serial run's:
// Systems share no mutable state, so running beside others may not
// change what one computes. State shared by mistake (a package-level
// pool, say) rarely corrupts a result on its own, but the race tier
// (go test -race) reports it here. It returns the serial result.
func shardedRun(t *testing.T, cfg arch.Config, shards int, prog func() core.Program) core.Result {
	t.Helper()
	serial := core.MustSystem(cfg)
	want := serial.Run(prog())
	if want.Cycles == 0 {
		t.Fatal("serial run took no cycles")
	}
	results := make([]core.Result, shards)
	executed := make([]uint64, shards)
	var start, done sync.WaitGroup
	start.Add(1)
	for i := 0; i < shards; i++ {
		done.Add(1)
		go func(i int) {
			defer done.Done()
			sys := core.MustSystem(cfg)
			p := prog()
			start.Wait() // release all shards together so they overlap
			results[i] = sys.Run(p)
			executed[i] = sys.Engine().Executed()
		}(i)
	}
	start.Done()
	done.Wait()
	for i := range results {
		if !reflect.DeepEqual(results[i], want) {
			t.Fatalf("shard %d of %d diverged from the serial run:\nserial: %+v\nshard:  %+v", i, shards, want, results[i])
		}
		if executed[i] != serial.Engine().Executed() {
			t.Fatalf("event-count parity broken: serial executed %d events, shard %d %d",
				serial.Engine().Executed(), i, executed[i])
		}
	}
	return want
}

// TestShardedRunMatchesSerial is the model-level check: a remote-heavy
// workload on a NUMA-aware, dynamic-link system run as four concurrent
// shards must produce results deep-equal to the serial run.
func TestShardedRunMatchesSerial(t *testing.T) {
	spec, _ := workload.ByName("HPC-CoMD")
	cfg := arch.TestConfig()
	cfg.CacheMode = arch.CacheNUMAAware
	cfg.LinkMode = arch.LinkDynamic
	res := shardedRun(t, cfg, 4, func() core.Program {
		return spec.Program(workload.Options{IterScale: 0.2, MaxCTAs: 64})
	})
	if res.RemoteAccessFraction == 0 || res.LinkBytes == 0 {
		t.Fatal("a NUMA-aware multi-socket run must access remote lines over the links")
	}
}

// TestShardedRemotePlacement drives heavy remote traffic (fine page
// interleave) through concurrent shards: every socket's home requests,
// fabric routes and remote completions run beside another System's.
func TestShardedRemotePlacement(t *testing.T) {
	cfg := arch.TestConfig()
	cfg.Placement = arch.PlaceFineInterleave
	res := shardedRun(t, cfg, 4, func() core.Program {
		return core.Program{Kernels: []core.Kernel{
			&gridKernel{ctas: 32, warps: 2, loads: 8, store: true},
		}}
	})
	if res.RemoteAccessFraction == 0 || res.LinkBytes == 0 {
		t.Fatal("fine-interleaved placement must access remote lines over the links")
	}
}

// TestShardedMultiKernelSequence runs a kernel sequence with stores and
// drain barriers on concurrent shards — the inter-kernel quiesce points
// and cache flushes are where state leaking between Systems would show.
func TestShardedMultiKernelSequence(t *testing.T) {
	cfg := arch.TestConfig()
	cfg.Sched = arch.SchedFineGrain
	res := shardedRun(t, cfg, 2, func() core.Program {
		return core.Program{Kernels: []core.Kernel{
			&gridKernel{name: "w", ctas: 24, warps: 2, loads: 10, store: true},
			&gridKernel{name: "r", ctas: 24, warps: 2, loads: 10},
			&gridKernel{name: "r2", ctas: 24, warps: 2, loads: 6},
		}}
	})
	if len(res.KernelCycles) != 3 {
		t.Fatalf("kernel cycles %v, want 3 entries", res.KernelCycles)
	}
	if res.Stores == 0 {
		t.Fatal("no stores recorded")
	}
}
