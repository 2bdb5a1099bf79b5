// Allocation-regression pins for the zero-alloc hot path. Excluded under
// the race detector: -race instruments every allocation and inflates
// testing.AllocsPerRun, so the pins only hold (and only matter) in normal
// builds — CI runs them in the bench job.

//go:build !race

package doacross_test

import (
	"runtime"
	"testing"

	"doacross"
	"doacross/internal/hotbench"
	"doacross/internal/pipeline"
)

// TestScratchScheduleAllocs pins steady-state scheduling into a warm
// Scratch at exactly zero allocations per call, for every heuristic
// backend. This is the contract BenchmarkHotScheduleWarm reports on: the
// schedule is borrowed from the scratch, every buffer is grown once and
// recycled, so a scheduling service in steady state puts no pressure on
// the garbage collector.
func TestScratchScheduleAllocs(t *testing.T) {
	prog := doacross.MustCompile(hotbench.Fig1)
	m := doacross.Machine4Issue(1)
	for _, backend := range []string{"sync", "list", "order", "best"} {
		t.Run(backend, func(t *testing.T) {
			sc := doacross.NewScratch()
			// One cold call grows the buffers; the pin is on the warm
			// steady state after it.
			if _, err := prog.ScheduleWith(backend, m, sc); err != nil {
				t.Fatal(err)
			}
			var failed error
			got := testing.AllocsPerRun(100, func() {
				s, err := prog.ScheduleWith(backend, m, sc)
				if err != nil {
					failed = err
				} else if s.Length() == 0 {
					t.Error("empty schedule")
				}
			})
			if failed != nil {
				t.Fatal(failed)
			}
			if got != 0 {
				t.Errorf("warm-scratch %s scheduling: %v allocs/op, want 0", backend, got)
			}
		})
	}
}

// TestSimNilTracerAllocs pins the untraced recurrence simulator's warm
// steady state at exactly 2 allocations per run — the returned IterIssue
// and IterDone timing slices, the only allocation sim.Time documents. The
// point of the pin is the tracer hook: with no tracer attached it must add
// nothing to the hot path. The pooled iteration scratch is warmed by one
// cold call first.
func TestSimNilTracerAllocs(t *testing.T) {
	prog := doacross.MustCompile(hotbench.Fig1)
	s, err := prog.ScheduleSync(doacross.Machine4Issue(1))
	if err != nil {
		t.Fatal(err)
	}
	opt := doacross.SimOptions{Lo: 1, Hi: hotbench.N}
	if _, err := doacross.SimulateOptions(s, opt); err != nil {
		t.Fatal(err)
	}
	var failed error
	got := testing.AllocsPerRun(100, func() {
		tm, err := doacross.SimulateOptions(s, opt)
		if err != nil {
			failed = err
		} else if tm.Total == 0 {
			t.Error("zero makespan")
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	if got != 2 {
		t.Errorf("warm untraced simulation: %v allocs/op, want exactly 2 (the returned timing slices)", got)
	}
}

// TestPipelineCachedHitAllocs pins the per-request allocation count of a
// cached-hit batch request — the steady-state service shape where every
// stage after compile is served from the schedule cache. The measured
// count is 18 allocs/op: the batch and its result, the worker goroutine
// Run spawns, the rendered key salts, the metrics snapshot and the timing
// audit. The bound leaves a little headroom over it; it exists to catch
// the hot path regressing back to per-request rescheduling (hundreds of
// allocations) or to per-request work a hit does not need.
func TestPipelineCachedHitAllocs(t *testing.T) {
	reqs := []pipeline.Request{{Name: "hot", Source: hotbench.Fig1, N: hotbench.N}}
	opt := doacross.BatchOptions{
		Workers:  1,
		Machines: []doacross.Machine{doacross.Machine4Issue(1)},
		Cache:    doacross.NewScheduleCache(),
	}
	var failed error
	run := func() {
		batch, err := pipeline.Run(reqs, opt)
		if err != nil {
			failed = err
			return
		}
		if err := batch.FirstErr(); err != nil {
			failed = err
		}
	}
	run() // warm the cache
	got := testing.AllocsPerRun(50, run)
	if failed != nil {
		t.Fatal(failed)
	}
	const limit = 22
	if got > limit {
		t.Errorf("cached-hit pipeline request: %v allocs/op, want <= %d", got, limit)
	}
}

// TestPipelineColdAllocs pins the allocation count of one cold request
// (hotbench.ColdRequest): Fig. 1 compiled, scheduled, verified and
// simulated from scratch on the paper's four machines, with a fresh cache
// per run and one worker. Measured at 455 allocs/op. The schedules of a
// request share one derivation of the verifier's edges; deriving them for
// every schedule instead costs about 95 more (551), and before the
// derivation and the per-schedule checks went map-free the request made
// 902.
func TestPipelineColdAllocs(t *testing.T) {
	var failed error
	got := testing.AllocsPerRun(20, func() {
		if err := hotbench.ColdRequest(); err != nil {
			failed = err
		}
	})
	if failed != nil {
		t.Fatal(failed)
	}
	const limit = 500
	if got > limit {
		t.Errorf("cold four-machine pipeline request: %v allocs/op, want <= %d", got, limit)
	}
}

// TestServerHitAllocs pins what a warm scheduld request costs through the
// daemon's handler (hotbench.HitServer: Fig. 1 on the paper's four
// machines, every stage a cache hit): bytes and allocations per request,
// from the TotalAlloc and Mallocs deltas over a run of requests. The
// measured cost is about 13 KiB and 93 allocations; before the per-flight
// span recorder was sized to one request and its snapshot to the spans it
// holds, it was about 98 KiB and 157.
func TestServerHitAllocs(t *testing.T) {
	serve, err := hotbench.HitServer()
	if err != nil {
		t.Fatal(err)
	}
	const requests = 300
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < requests; i++ {
		if err := serve(); err != nil {
			t.Fatal(err)
		}
	}
	runtime.ReadMemStats(&after)
	bytes := (after.TotalAlloc - before.TotalAlloc) / requests
	allocs := (after.Mallocs - before.Mallocs) / requests
	const maxBytes, maxAllocs = 16 << 10, 110
	if bytes > maxBytes {
		t.Errorf("warm scheduld hit: %d B/request, want <= %d", bytes, maxBytes)
	}
	if allocs > maxAllocs {
		t.Errorf("warm scheduld hit: %d allocs/request, want <= %d", allocs, maxAllocs)
	}
	t.Logf("warm scheduld hit: %d B/request, %d allocs/request", bytes, allocs)
}
