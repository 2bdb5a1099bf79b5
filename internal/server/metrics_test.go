package server

import (
	"context"
	"errors"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"doacross/internal/pipeline"
)

// TestPrometheusDaemonGolden pins the complete GET /metrics body of a daemon
// whose every counter is known: no request reaches the pipeline (so no
// latency lands in a histogram bucket), the disk tier is on and empty, and
// one backend's circuit is open. The doacross_* section comes first, then
// the scheduld_* section, in one scrape.
func TestPrometheusDaemonGolden(t *testing.T) {
	hook := func(stage, name string) error {
		if stage == stageNet && name == "flaky" {
			return errors.New("injected network fault")
		}
		return nil
	}
	s := newTestServer(t, Config{DiskDir: t.TempDir(), BreakerThreshold: 1, FaultHook: hook})
	h := s.Handler()

	for _, req := range []ScheduleRequest{
		{Name: "empty"},                    // 400: missing source
		{Name: "neg", Source: fig1, N: -1}, // 400: negative trip count
		{Name: "flaky", Source: fig1},      // 503: injected network fault
	} {
		post(t, h, req, nil)
	}
	s.breakers.record("sync", false, time.Now()) // threshold 1: open
	s.Metrics().CacheHit()
	s.Metrics().Observe(pipeline.StageSchedule, 50*time.Microsecond)
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	post(t, h, ScheduleRequest{Name: "late", Source: fig1}, nil) // 503: draining

	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	const want = `# HELP doacross_stage_duration_seconds Latency of pipeline stages and compilation passes.
# TYPE doacross_stage_duration_seconds histogram
doacross_stage_duration_seconds_bucket{stage="schedule",le="1e-05"} 0
doacross_stage_duration_seconds_bucket{stage="schedule",le="0.0001"} 1
doacross_stage_duration_seconds_bucket{stage="schedule",le="0.001"} 1
doacross_stage_duration_seconds_bucket{stage="schedule",le="0.01"} 1
doacross_stage_duration_seconds_bucket{stage="schedule",le="0.1"} 1
doacross_stage_duration_seconds_bucket{stage="schedule",le="1"} 1
doacross_stage_duration_seconds_bucket{stage="schedule",le="+Inf"} 1
doacross_stage_duration_seconds_sum{stage="schedule"} 5e-05
doacross_stage_duration_seconds_count{stage="schedule"} 1
# HELP doacross_stage_runs_total Completed executions per stage.
# TYPE doacross_stage_runs_total counter
doacross_stage_runs_total{stage="schedule"} 1
# HELP doacross_stage_errors_total Failed executions per stage.
# TYPE doacross_stage_errors_total counter
doacross_stage_errors_total{stage="schedule"} 0
# HELP doacross_cache_hits_total Schedule-cache hits.
# TYPE doacross_cache_hits_total counter
doacross_cache_hits_total 1
# HELP doacross_cache_misses_total Schedule-cache misses.
# TYPE doacross_cache_misses_total counter
doacross_cache_misses_total 0
# HELP doacross_cache_evictions_total Schedule-cache entries evicted by the capacity bound.
# TYPE doacross_cache_evictions_total counter
doacross_cache_evictions_total 0
# HELP doacross_panics_recovered_total Panics recovered inside workers, stages and passes.
# TYPE doacross_panics_recovered_total counter
doacross_panics_recovered_total 0
# HELP doacross_request_timeouts_total Requests lost to deadlines or cancellation.
# TYPE doacross_request_timeouts_total counter
doacross_request_timeouts_total 0
# HELP doacross_fallbacks_total Requests served by the verified program-order fallback schedule.
# TYPE doacross_fallbacks_total counter
doacross_fallbacks_total 0
# HELP doacross_schedules_verified_total Schedule sets accepted by the independent post-schedule verifier.
# TYPE doacross_schedules_verified_total counter
doacross_schedules_verified_total 0
# HELP doacross_schedules_rejected_total Schedule sets the independent post-schedule verifier refused to serve.
# TYPE doacross_schedules_rejected_total counter
doacross_schedules_rejected_total 0
# HELP doacross_lint_findings_total Synchronization-linter findings across fresh compilations.
# TYPE doacross_lint_findings_total counter
doacross_lint_findings_total 0
# HELP doacross_dep_exact_total Dependence pairs proven exact (distances enumerated with witnesses) across fresh compilations.
# TYPE doacross_dep_exact_total counter
doacross_dep_exact_total 0
# HELP doacross_dep_independent_total Dependence pairs proven independent (GCD or bound-separation certificate) across fresh compilations.
# TYPE doacross_dep_independent_total counter
doacross_dep_independent_total 0
# HELP doacross_dep_conservative_total Dependence pairs assumed conservative (undecidable residue) across fresh compilations.
# TYPE doacross_dep_conservative_total counter
doacross_dep_conservative_total 0
# HELP doacross_sim_signals_sent_total Send_Signal issues across served simulations (paper-level sync traffic).
# TYPE doacross_sim_signals_sent_total counter
doacross_sim_signals_sent_total 0
# HELP doacross_sim_wait_stall_cycles_total Cycles lost to Wait_Signal stalls across served simulations.
# TYPE doacross_sim_wait_stall_cycles_total counter
doacross_sim_wait_stall_cycles_total 0
# HELP doacross_sched_lbd_arcs_total Synchronization arcs left lexically backward by served schedules.
# TYPE doacross_sched_lbd_arcs_total counter
doacross_sched_lbd_arcs_total 0
# HELP doacross_sched_lfd_arcs_total Synchronization arcs placed lexically forward by served schedules.
# TYPE doacross_sched_lfd_arcs_total counter
doacross_sched_lfd_arcs_total 0
# HELP doacross_workers_in_flight Requests currently executing inside a worker.
# TYPE doacross_workers_in_flight gauge
doacross_workers_in_flight 0
# HELP doacross_queue_depth Requests enqueued but not yet picked up by a worker.
# TYPE doacross_queue_depth gauge
doacross_queue_depth 0
# HELP doacross_cache_entries Entries resident in the attached schedule cache.
# TYPE doacross_cache_entries gauge
doacross_cache_entries 0
# HELP scheduld_requests_total schedule requests received
# TYPE scheduld_requests_total counter
scheduld_requests_total 4
# HELP scheduld_responses_ok_total schedule requests answered 200
# TYPE scheduld_responses_ok_total counter
scheduld_responses_ok_total 0
# HELP scheduld_client_errors_total schedule requests answered 4xx (excluding rate-limit sheds)
# TYPE scheduld_client_errors_total counter
scheduld_client_errors_total 2
# HELP scheduld_server_errors_total schedule requests answered 5xx (excluding sheds)
# TYPE scheduld_server_errors_total counter
scheduld_server_errors_total 1
# HELP scheduld_timeouts_total schedule requests answered 504 after the caller's deadline expired
# TYPE scheduld_timeouts_total counter
scheduld_timeouts_total 0
# HELP scheduld_flights_total singleflight computations started (leaders)
# TYPE scheduld_flights_total counter
scheduld_flights_total 0
# HELP scheduld_coalesced_total requests served by another caller's in-flight computation
# TYPE scheduld_coalesced_total counter
scheduld_coalesced_total 0
# HELP scheduld_shed_ratelimit_total requests shed 429 by the per-tenant token bucket
# TYPE scheduld_shed_ratelimit_total counter
scheduld_shed_ratelimit_total 0
# HELP scheduld_shed_queue_total requests shed 503 by the bounded admission queue
# TYPE scheduld_shed_queue_total counter
scheduld_shed_queue_total 0
# HELP scheduld_shed_breaker_total requests shed 503 by an open backend circuit
# TYPE scheduld_shed_breaker_total counter
scheduld_shed_breaker_total 0
# HELP scheduld_shed_draining_total requests shed 503 while draining for shutdown
# TYPE scheduld_shed_draining_total counter
scheduld_shed_draining_total 1
# HELP scheduld_net_faults_total injected network faults served as errors
# TYPE scheduld_net_faults_total counter
scheduld_net_faults_total 1
# HELP scheduld_breaker_open_total circuit-breaker open transitions
# TYPE scheduld_breaker_open_total counter
scheduld_breaker_open_total 1
# HELP scheduld_breaker_state circuit state per backend (0 closed, 1 open, 2 half-open)
# TYPE scheduld_breaker_state gauge
scheduld_breaker_state{backend="sync"} 1
# HELP scheduld_inflight requests holding an admission slot
# TYPE scheduld_inflight gauge
scheduld_inflight 0
# HELP scheduld_queue_waiting requests waiting for an admission slot
# TYPE scheduld_queue_waiting gauge
scheduld_queue_waiting 0
# HELP scheduld_flights_live singleflight computations currently running
# TYPE scheduld_flights_live gauge
scheduld_flights_live 0
# HELP scheduld_flight_waiters callers currently waiting on a flight (leaders included)
# TYPE scheduld_flight_waiters gauge
scheduld_flight_waiters 0
# HELP scheduld_draining 1 while the daemon is draining for shutdown
# TYPE scheduld_draining gauge
scheduld_draining 1
# HELP scheduld_disk_entries persistent-tier entries on disk
# TYPE scheduld_disk_entries gauge
scheduld_disk_entries 0
# HELP scheduld_disk_writes_total persistent-tier writes
# TYPE scheduld_disk_writes_total counter
scheduld_disk_writes_total 0
# HELP scheduld_disk_write_errors_total persistent-tier write failures (request unaffected)
# TYPE scheduld_disk_write_errors_total counter
scheduld_disk_write_errors_total 0
# HELP scheduld_disk_reads_total persistent-tier reads
# TYPE scheduld_disk_reads_total counter
scheduld_disk_reads_total 0
# HELP scheduld_disk_read_errors_total persistent-tier read failures
# TYPE scheduld_disk_read_errors_total counter
scheduld_disk_read_errors_total 0
# HELP scheduld_disk_corrupt_total persistent-tier entries that failed integrity checks
# TYPE scheduld_disk_corrupt_total counter
scheduld_disk_corrupt_total 0
# HELP scheduld_disk_quarantined_total persistent-tier entries moved to quarantine
# TYPE scheduld_disk_quarantined_total counter
scheduld_disk_quarantined_total 0
# HELP scheduld_disk_loaded entries restored warm from disk at startup
# TYPE scheduld_disk_loaded gauge
scheduld_disk_loaded 0
# HELP scheduld_disk_load_stale disk entries skipped at startup (produced under other options)
# TYPE scheduld_disk_load_stale gauge
scheduld_disk_load_stale 0
# HELP scheduld_disk_load_corrupt disk entries quarantined at startup
# TYPE scheduld_disk_load_corrupt gauge
scheduld_disk_load_corrupt 0
`
	if got := w.Body.String(); got != want {
		t.Errorf("exposition drifted.\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}
}
