package service

import (
	"fmt"
	"net/http"
	"time"
)

// handleMetrics renders the daemon's counters in Prometheus text
// exposition format (version 0.0.4): simulation run counts, cache
// hits/misses, job states, and queue depth — the numbers the
// acceptance checks (singleflight, warm restart) observe.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	rs := s.runner.Stats()
	fs := s.fabric.snapshot()

	s.mu.Lock()
	byState := map[JobState]int{}
	for _, id := range s.order {
		byState[s.jobs[id].state]++
	}
	queued := s.queued
	running := len(s.active)
	deadlineJobs := s.deadlineJobsCancelled
	s.mu.Unlock()

	var ds DiskStats
	if s.disk != nil {
		ds = s.disk.Stats()
	}

	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	p := func(format string, args ...any) { fmt.Fprintf(w, format, args...) }

	p("# HELP numagpud_simulations_total Simulations actually executed by the shared runner.\n")
	p("# TYPE numagpud_simulations_total counter\n")
	p("numagpud_simulations_total %d\n", rs.Simulations)

	p("# HELP numagpud_cache_hits_total Runs served from the persistent result cache.\n")
	p("# TYPE numagpud_cache_hits_total counter\n")
	p("numagpud_cache_hits_total %d\n", rs.CacheHits)

	p("# HELP numagpud_cache_misses_total Cache lookups that fell through to a simulation.\n")
	p("# TYPE numagpud_cache_misses_total counter\n")
	p("numagpud_cache_misses_total %d\n", rs.CacheMisses)

	p("# HELP numagpud_delta_hits_total Runs a job's sweep resolved without new work (memoized or served from the result cache), once per key per sweep.\n")
	p("# TYPE numagpud_delta_hits_total counter\n")
	p("numagpud_delta_hits_total %d\n", rs.DeltaHits)

	p("# HELP numagpud_coalesced_keys_total Runs a job's sweep joined while another caller was executing them, once per key per sweep.\n")
	p("# TYPE numagpud_coalesced_keys_total counter\n")
	p("numagpud_coalesced_keys_total %d\n", rs.CoalescedKeys)

	p("# HELP numagpud_cache_entries Result files in the persistent cache.\n")
	p("# TYPE numagpud_cache_entries gauge\n")
	p("numagpud_cache_entries %d\n", ds.Entries)

	p("# HELP numagpud_cache_bytes Bytes used by the persistent cache.\n")
	p("# TYPE numagpud_cache_bytes gauge\n")
	p("numagpud_cache_bytes %d\n", ds.Bytes)

	// Per-state counts move between labels as jobs progress (and drop
	// on retention eviction), so this is a gauge, not a counter.
	p("# HELP numagpud_jobs Retained jobs by current state.\n")
	p("# TYPE numagpud_jobs gauge\n")
	for _, st := range []JobState{JobQueued, JobRunning, JobDone, JobFailed} {
		p("numagpud_jobs{state=%q} %d\n", st, byState[st])
	}

	p("# HELP numagpud_queue_depth Jobs waiting for a worker.\n")
	p("# TYPE numagpud_queue_depth gauge\n")
	p("numagpud_queue_depth %d\n", queued)

	p("# HELP numagpud_jobs_running Jobs currently executing.\n")
	p("# TYPE numagpud_jobs_running gauge\n")
	p("numagpud_jobs_running %d\n", running)

	p("# HELP numagpud_remote_runs_total Runs executed by fabric workers on behalf of this daemon's runners.\n")
	p("# TYPE numagpud_remote_runs_total counter\n")
	p("numagpud_remote_runs_total %d\n", rs.RemoteRuns)

	p("# HELP numagpud_fabric_workers Live registered fabric workers.\n")
	p("# TYPE numagpud_fabric_workers gauge\n")
	p("numagpud_fabric_workers %d\n", fs.WorkersLive)

	p("# HELP numagpud_fabric_workers_seen_total Workers ever registered.\n")
	p("# TYPE numagpud_fabric_workers_seen_total counter\n")
	p("numagpud_fabric_workers_seen_total %d\n", fs.WorkersSeen)

	p("# HELP numagpud_fabric_shards Shards currently in flight by state.\n")
	p("# TYPE numagpud_fabric_shards gauge\n")
	p("numagpud_fabric_shards{state=\"pending\"} %d\n", fs.Pending)
	p("numagpud_fabric_shards{state=\"leased\"} %d\n", fs.Leased)

	p("# HELP numagpud_fabric_shards_total Unique RunKeys ever dispatched to the fabric.\n")
	p("# TYPE numagpud_fabric_shards_total counter\n")
	p("numagpud_fabric_shards_total %d\n", fs.ShardsTotal)

	p("# HELP numagpud_fabric_shards_completed_total Shards finished with a worker-produced result.\n")
	p("# TYPE numagpud_fabric_shards_completed_total counter\n")
	p("numagpud_fabric_shards_completed_total %d\n", fs.Completed)

	p("# HELP numagpud_fabric_shards_failed_total Shards finished with a deterministic worker error.\n")
	p("# TYPE numagpud_fabric_shards_failed_total counter\n")
	p("numagpud_fabric_shards_failed_total %d\n", fs.Failed)

	p("# HELP numagpud_fabric_shards_requeued_total Shards re-queued after their worker died or timed out.\n")
	p("# TYPE numagpud_fabric_shards_requeued_total counter\n")
	p("numagpud_fabric_shards_requeued_total %d\n", fs.Requeued)

	p("# HELP numagpud_fabric_results_stale_total Worker reports dropped because the shard was already complete or unknown (exactly-once guard).\n")
	p("# TYPE numagpud_fabric_results_stale_total counter\n")
	p("numagpud_fabric_results_stale_total %d\n", fs.StaleResults)

	p("# HELP numagpud_fabric_worker_simulations_total Simulations reported by workers (live fleet's last polls plus departed workers).\n")
	p("# TYPE numagpud_fabric_worker_simulations_total counter\n")
	p("numagpud_fabric_worker_simulations_total %d\n", fs.WorkerStats.Simulations)

	p("# HELP numagpud_fabric_shards_resumed_total Shards rebuilt from journaled grants after a coordinator restart.\n")
	p("# TYPE numagpud_fabric_shards_resumed_total counter\n")
	p("numagpud_fabric_shards_resumed_total %d\n", fs.Resumed)

	p("# HELP numagpud_admission_rejected_total Submissions shed by admission control, by reason and tenant.\n")
	p("# TYPE numagpud_admission_rejected_total counter\n")
	for _, rej := range s.admission.rejections() {
		p("numagpud_admission_rejected_total{reason=%q,tenant=%q} %d\n", rej.Key.Reason, rej.Key.Tenant, rej.Count)
	}

	p("# HELP numagpud_deadline_cancelled_total Work cancelled because its deadline passed before it started.\n")
	p("# TYPE numagpud_deadline_cancelled_total counter\n")
	p("numagpud_deadline_cancelled_total{kind=\"job\"} %d\n", deadlineJobs)
	p("numagpud_deadline_cancelled_total{kind=\"shard\"} %d\n", fs.DeadlineCancelled)

	p("# HELP numagpud_journal_replays_total Times the state journal recovered state at startup (0 or 1 per process; survives in snapshots).\n")
	p("# TYPE numagpud_journal_replays_total counter\n")
	p("numagpud_journal_replays_total %d\n", s.jnl.replayCount())

	p("# HELP numagpud_journal_bytes On-disk size of the state journal (snapshot plus log tail).\n")
	p("# TYPE numagpud_journal_bytes gauge\n")
	p("numagpud_journal_bytes %d\n", s.jnl.bytes())

	p("# HELP numagpud_uptime_seconds Seconds since the daemon started.\n")
	p("# TYPE numagpud_uptime_seconds gauge\n")
	p("numagpud_uptime_seconds %.0f\n", time.Since(s.start).Seconds())
}
