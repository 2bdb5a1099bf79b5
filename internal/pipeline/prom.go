package pipeline

import (
	"io"

	"doacross/internal/obs"
)

// metric indexes the registry's counters and gauges: Metrics.vals holds one
// atomic per metric and metricTable one exposition row per metric, both in
// exposition order. Adding a counter takes a Stats field and a row here.
type metric int

const (
	mCacheHits metric = iota
	mCacheMisses
	mCacheEvictions // read from the attached cache, not from vals
	mPanics
	mTimeouts
	mFallbacks
	mVerified
	mRejected
	mLintFindings
	mDepExact
	mDepIndependent
	mDepConservative
	mSignals
	mStallCycles
	mLBDArcs
	mLFDArcs
	// The machine-utilization rows, mSlotsTotal up to mInFlight, are
	// exposed only once a traced simulation offered issue slots.
	mSlotsTotal
	mSlotsUsed
	mCyclesIssued
	mCyclesSyncWait
	mCyclesWindowWait
	mCyclesDrain
	mEmptyRAW
	mEmptyFUBusy
	mEmptyWidth
	mEmptyDrain
	mInFlight
	mQueueDepth
	mCacheEntries // read from the attached cache, not from vals
	numMetrics
)

// metricTable declares every counter and gauge of the registry once: its
// exposition name, help and type, and the Stats field Stats fills and
// WritePrometheus reads.
var metricTable = [numMetrics]obs.Metric[Stats]{
	mCacheHits: {Name: "doacross_cache_hits_total", Type: obs.Counter, Help: "Schedule-cache hits.",
		Field: func(s *Stats) *int64 { return &s.CacheHits }},
	mCacheMisses: {Name: "doacross_cache_misses_total", Type: obs.Counter, Help: "Schedule-cache misses.",
		Field: func(s *Stats) *int64 { return &s.CacheMisses }},
	mCacheEvictions: {Name: "doacross_cache_evictions_total", Type: obs.Counter, Help: "Schedule-cache entries evicted by the capacity bound.",
		Field: func(s *Stats) *int64 { return &s.CacheEvictions }},
	mPanics: {Name: "doacross_panics_recovered_total", Type: obs.Counter, Help: "Panics recovered inside workers, stages and passes.",
		Field: func(s *Stats) *int64 { return &s.Panics }},
	mTimeouts: {Name: "doacross_request_timeouts_total", Type: obs.Counter, Help: "Requests lost to deadlines or cancellation.",
		Field: func(s *Stats) *int64 { return &s.Timeouts }},
	mFallbacks: {Name: "doacross_fallbacks_total", Type: obs.Counter, Help: "Requests served by the verified program-order fallback schedule.",
		Field: func(s *Stats) *int64 { return &s.Fallbacks }},
	mVerified: {Name: "doacross_schedules_verified_total", Type: obs.Counter, Help: "Schedule sets accepted by the independent post-schedule verifier.",
		Field: func(s *Stats) *int64 { return &s.Verified }},
	mRejected: {Name: "doacross_schedules_rejected_total", Type: obs.Counter, Help: "Schedule sets the independent post-schedule verifier refused to serve.",
		Field: func(s *Stats) *int64 { return &s.Rejected }},
	mLintFindings: {Name: "doacross_lint_findings_total", Type: obs.Counter, Help: "Synchronization-linter findings across fresh compilations.",
		Field: func(s *Stats) *int64 { return &s.LintFindings }},
	mDepExact: {Name: "doacross_dep_exact_total", Type: obs.Counter, Help: "Dependence pairs proven exact (distances enumerated with witnesses) across fresh compilations.",
		Field: func(s *Stats) *int64 { return &s.DepExact }},
	mDepIndependent: {Name: "doacross_dep_independent_total", Type: obs.Counter, Help: "Dependence pairs proven independent (GCD or bound-separation certificate) across fresh compilations.",
		Field: func(s *Stats) *int64 { return &s.DepIndependent }},
	mDepConservative: {Name: "doacross_dep_conservative_total", Type: obs.Counter, Help: "Dependence pairs assumed conservative (undecidable residue) across fresh compilations.",
		Field: func(s *Stats) *int64 { return &s.DepConservative }},
	mSignals: {Name: "doacross_sim_signals_sent_total", Type: obs.Counter, Help: "Send_Signal issues across served simulations (paper-level sync traffic).",
		Field: func(s *Stats) *int64 { return &s.SignalsSent }},
	mStallCycles: {Name: "doacross_sim_wait_stall_cycles_total", Type: obs.Counter, Help: "Cycles lost to Wait_Signal stalls across served simulations.",
		Field: func(s *Stats) *int64 { return &s.WaitStallCycles }},
	mLBDArcs: {Name: "doacross_sched_lbd_arcs_total", Type: obs.Counter, Help: "Synchronization arcs left lexically backward by served schedules.",
		Field: func(s *Stats) *int64 { return &s.LBDArcs }},
	mLFDArcs: {Name: "doacross_sched_lfd_arcs_total", Type: obs.Counter, Help: "Synchronization arcs placed lexically forward by served schedules.",
		Field: func(s *Stats) *int64 { return &s.LFDArcs }},
	mSlotsTotal: {Name: "doacross_sim_issue_slots_total", Type: obs.Counter, Help: "Issue slots offered by the machine (procs x cycles x width) across traced served simulations.",
		Field: func(s *Stats) *int64 { return &s.MachineSlotsTotal }},
	mSlotsUsed: {Name: "doacross_sim_issue_slots_used_total", Type: obs.Counter, Help: "Issue slots actually filled by an instruction across traced served simulations.",
		Field: func(s *Stats) *int64 { return &s.MachineSlotsUsed }},
	mCyclesIssued: {Name: "doacross_sim_machine_cycles_total", Type: obs.Counter, Help: "Processor cycles across traced served simulations, split by attributed cause.",
		Label: "cause", LabelValue: "issued", Field: func(s *Stats) *int64 { return &s.MachineCyclesIssued }},
	mCyclesSyncWait: {Name: "doacross_sim_machine_cycles_total",
		Label: "cause", LabelValue: "sync_wait", Field: func(s *Stats) *int64 { return &s.MachineCyclesSyncWait }},
	mCyclesWindowWait: {Name: "doacross_sim_machine_cycles_total",
		Label: "cause", LabelValue: "window_wait", Field: func(s *Stats) *int64 { return &s.MachineCyclesWindowWait }},
	mCyclesDrain: {Name: "doacross_sim_machine_cycles_total",
		Label: "cause", LabelValue: "drain", Field: func(s *Stats) *int64 { return &s.MachineCyclesDrain }},
	mEmptyRAW: {Name: "doacross_sim_empty_slots_total", Type: obs.Counter, Help: "Empty issue slots on cycles that did issue, split by the static reason the slot stayed empty.",
		Label: "cause", LabelValue: "raw", Field: func(s *Stats) *int64 { return &s.MachineEmptyRAW }},
	mEmptyFUBusy: {Name: "doacross_sim_empty_slots_total",
		Label: "cause", LabelValue: "fu_busy", Field: func(s *Stats) *int64 { return &s.MachineEmptyFUBusy }},
	mEmptyWidth: {Name: "doacross_sim_empty_slots_total",
		Label: "cause", LabelValue: "issue_width", Field: func(s *Stats) *int64 { return &s.MachineEmptyIssueWidth }},
	mEmptyDrain: {Name: "doacross_sim_empty_slots_total",
		Label: "cause", LabelValue: "drain", Field: func(s *Stats) *int64 { return &s.MachineEmptyDrain }},
	mInFlight: {Name: "doacross_workers_in_flight", Type: obs.Gauge, Help: "Requests currently executing inside a worker.",
		Field: func(s *Stats) *int64 { return &s.InFlight }},
	mQueueDepth: {Name: "doacross_queue_depth", Type: obs.Gauge, Help: "Requests enqueued but not yet picked up by a worker.",
		Field: func(s *Stats) *int64 { return &s.QueueDepth }},
	mCacheEntries: {Name: "doacross_cache_entries", Type: obs.Gauge, Help: "Entries resident in the attached schedule cache.",
		Field: func(s *Stats) *int64 { return &s.CacheEntries }},
}

// WritePrometheus writes the snapshot in the Prometheus text exposition
// format: the per-stage latency buckets as a histogram plus per-stage run
// and error counts, then metricTable — cache and robustness counters, the
// paper-level simulation counters (Send_Signal traffic, wait-stall cycles,
// the LBD/LFD arc split) so dashboards plot them next to wall-clock
// latency, and the liveness and cache gauges.
func (s Stats) WritePrometheus(w io.Writer) {
	series := make([]obs.Series, len(s.Stages))
	runs := make([]obs.Sample, len(s.Stages))
	errs := make([]obs.Sample, len(s.Stages))
	for i := range s.Stages {
		st := &s.Stages[i]
		series[i] = obs.Series{Label: st.Stage, Buckets: st.Buckets[:], Count: st.Count, Sum: st.Total}
		runs[i] = obs.Sample{Label: st.Stage, Value: st.Count}
		errs[i] = obs.Sample{Label: st.Stage, Value: st.Errors}
	}
	obs.WriteHistogram(w, "doacross_stage_duration_seconds", "Latency of pipeline stages and compilation passes.", "stage", bucketBounds[:], series)
	obs.WriteFamily(w, "doacross_stage_runs_total", "Completed executions per stage.", obs.Counter, "stage", runs)
	obs.WriteFamily(w, "doacross_stage_errors_total", "Failed executions per stage.", obs.Counter, "stage", errs)
	obs.WriteMetrics(w, &s, metricTable[:mSlotsTotal])
	if s.MachineSlotsTotal > 0 {
		obs.WriteMetrics(w, &s, metricTable[mSlotsTotal:mInFlight])
	}
	obs.WriteMetrics(w, &s, metricTable[mInFlight:])
}

// WritePrometheus snapshots the registry and writes the exposition; the
// obs.Server /metrics hook is exactly this method.
func (m *Metrics) WritePrometheus(w io.Writer) { m.Stats().WritePrometheus(w) }
