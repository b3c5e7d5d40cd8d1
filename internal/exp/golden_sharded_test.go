package exp

import (
	"bytes"
	"os"
	"sync/atomic"
	"testing"

	"repro/internal/arch"
	"repro/internal/core"
	"repro/internal/workload"
)

// shardBackend plays a sweep fabric in-process: every run the rendering
// Runner cannot resolve from its memo is leased, as one shard, to the
// next of several worker Runners in turn, the way a numagpud
// coordinator spreads a sweep over its workers. Each worker has its own
// memo, so a result reaches the rendering Runner only through the
// Backend contract.
type shardBackend struct {
	workers []*Runner
	runs    []atomic.Int64 // shards executed, per worker
	next    atomic.Int64
}

// newShardBackend builds n workers running with opts (its Backend
// cleared: workers simulate locally).
func newShardBackend(n int, opts Options) *shardBackend {
	opts.Backend = nil
	b := &shardBackend{runs: make([]atomic.Int64, n)}
	for i := 0; i < n; i++ {
		b.workers = append(b.workers, NewRunner(opts))
	}
	return b
}

func (b *shardBackend) Execute(_ string, cfg arch.Config, spec workload.Spec, _ workload.Options) (core.Result, error) {
	i := int(b.next.Add(1)-1) % len(b.workers)
	b.runs[i].Add(1)
	return b.workers[i].Run(cfg, spec), nil
}

// checkSpread fails t unless every shard the rendering runner issued
// went through the backend and, once there were at least as many
// shards as workers, every worker executed some.
func (b *shardBackend) checkSpread(t *testing.T, runner *Runner) {
	t.Helper()
	var total int64
	busy := 0
	for i := range b.runs {
		n := b.runs[i].Load()
		total += n
		if n > 0 {
			busy++
		}
	}
	if st := runner.Stats(); st.Simulations != 0 || st.RemoteRuns != uint64(total) {
		t.Fatalf("rendering runner stats %+v, want 0 local simulations and %d remote runs", st, total)
	}
	if total >= int64(len(b.workers)) && busy != len(b.workers) {
		t.Fatalf("%d shards reached only %d of %d workers: the sweep was not spread", total, busy, len(b.workers))
	}
}

// TestGoldenMastersSharded reruns every registered experiment with its
// simulations leased as shards to four independent worker Runners and
// diffs the rendered output byte-for-byte against the same fixtures
// TestGoldenMasters checks. Spreading a sweep over workers must be
// invisible — not statistically close, identical — across the full
// experiment matrix: every cache mode, link mode, scheduler, placement
// policy, socket count, and topology the goldens cover. The rendering
// runner keeps request order and table assembly; only the simulations
// move, exactly as with `numagpu -remote`.
//
// Never run with -update: the fixtures are owned by the serial tier.
// A failure here with a passing TestGoldenMasters means the shard path
// diverged; a failure in both means the model changed.
func TestGoldenMastersSharded(t *testing.T) {
	if testing.Short() {
		t.Skip("sharded golden masters simulate the full -quick suite; skipped in -short mode")
	}
	b := newShardBackend(4, QuickOptions())
	opts := QuickOptions()
	opts.Backend = b
	runner := NewRunner(opts)
	for _, e := range Experiments() {
		e := e
		t.Run(e.Name, func(t *testing.T) {
			got := RenderGolden(e.Run(runner))
			want, err := os.ReadFile(goldenPath(e.Name))
			if err != nil {
				t.Fatalf("missing golden fixture (regenerate with TestGoldenMasters -update): %v", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s sharded output diverged from the serial golden master (%d bytes got, %d want).\n"+
					"Where a run executes must be invisible in results; do NOT regenerate fixtures for this.\n"+
					"--- got ---\n%s\n--- want ---\n%s",
					e.Name, len(got), len(want), firstDiffWindow(got, want), firstDiffWindow(want, got))
			}
		})
	}
	b.checkSpread(t, runner)
}
