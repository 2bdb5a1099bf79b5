package doacross_test

// The hot-path benchmark entry points tracked by BENCH_hotpath.json. The
// workloads live in internal/hotbench so `go test -bench 'Batch64|Hot'`
// and the snapshot emitter (`go run ./cmd/report -hotpath-json`) measure
// identical code. This file is in the external test package because
// hotbench imports doacross itself.

import (
	"testing"

	"doacross/internal/hotbench"
)

// BenchmarkBatch64 compares scheduling the 64-loop corpus one loop at a time
// (the pre-pipeline code path: compile, schedule both ways, simulate,
// serially, no reuse) against the batch pipeline with 8 workers and a
// persistent schedule cache (the steady-state service shape). The pipeline
// sub-benchmark reports the cache hit rate; stage latencies are available
// via -stats on cmd/benchtab and cmd/schedcmp.
func BenchmarkBatch64(b *testing.B) {
	b.Run("serial", hotbench.SerialBatch)
	b.Run("pipeline-j8", hotbench.PipelineBatch)
}

// BenchmarkHotCompileSchedule is the single-loop compile→schedule hot path:
// parse, dependence analysis, synchronization insertion, lowering, graph
// build, then a sync schedule into a warm Scratch.
func BenchmarkHotCompileSchedule(b *testing.B) { hotbench.CompileSchedule(b) }

// BenchmarkHotScheduleWarm is the steady-state scheduling kernel alone: a
// compiled program rescheduled into a warm Scratch. The loop body allocates
// nothing (pinned to 0 by TestScratchScheduleAllocs).
func BenchmarkHotScheduleWarm(b *testing.B) { hotbench.ScheduleWarm(b) }

// BenchmarkHotPipelineCachedHit is a steady-state batch request whose
// schedule is already cached: one request through a warm pipeline, measuring
// the per-request overhead when every stage after compile is a cache hit.
func BenchmarkHotPipelineCachedHit(b *testing.B) { hotbench.PipelineCachedHit(b) }

// BenchmarkHotPipelineCold is one cold request through the pipeline: Fig. 1
// compiled, scheduled, verified and simulated on the paper's four machines
// with a fresh cache. Its allocations are pinned by TestPipelineColdAllocs.
func BenchmarkHotPipelineCold(b *testing.B) { hotbench.PipelineCold(b) }

// BenchmarkHotServeHit is a warm scheduld request through the daemon's
// handler: Fig. 1 on the paper's four machines, every stage a cache hit.
// Its bytes per request are pinned by TestServerHitAllocs.
func BenchmarkHotServeHit(b *testing.B) { hotbench.ServeHit(b) }

// BenchmarkHotSim measures the recurrence simulator on the Fig. 1 sync
// schedule untraced (the pipeline's hot path — the nil tracer hook must
// cost nothing, pinned by TestSimNilTracerAllocs) against the same run with
// the cycle-accurate tracer attached and its attribution books verified
// (the cost of -why, -machine-obs and the utilization audit).
func BenchmarkHotSim(b *testing.B) {
	b.Run("untraced", hotbench.SimUntraced)
	b.Run("traced", hotbench.SimTraced)
}
