// Package pipeline is the batch scheduling service over many DOACROSS
// loops: it fans compile → schedule (list + backend) → simulate out across a
// worker pool, deduplicates repeated scheduling problems through a sharded
// content-addressed schedule cache (key = DFG fingerprint + machine
// configuration + scheduler options, built in internal/dfg), and records
// per-stage latency and cache traffic in an embedded metrics registry.
//
// Results are returned in request order and are independent of the worker
// count: every per-loop computation is a pure function of the loop source
// and the options, and cached values are bound first-writer-wins, so a batch
// run with 1 worker and with 8 workers yields identical numbers.
//
// The service is hardened against misbehaving inputs and stages:
//
//   - Cancellation: RunContext threads a context through the worker pool,
//     checked between the compile, schedule and simulate stages;
//     Options.Deadline bounds the batch and Options.RequestTimeout each
//     request. A cancelled batch still returns every result in request
//     order, with per-request errors on the requests that were cut off.
//   - Panic isolation: a panic in any stage (or compilation pass) is
//     recovered into a structured diagnostic carrying the stage, the request
//     name and a stack digest; one poisoned loop never kills the batch.
//   - Graceful degradation: when any stage fails on a machine — the
//     scheduler (an error, a panic, or a schedule rejected by Validate), the
//     verifier or the simulator — that machine's result is served by the
//     program-order list schedule in every slot, which the paper guarantees
//     is always a correct (if slower) answer. The fallback passes Validate
//     and internal/check and is timed before it is returned, the result is
//     flagged Degraded with the reason, and it is never cached. Only a
//     failure of the fallback itself fails the request.
//   - Independent verification: every freshly built schedule — organic or
//     fallback — passes through internal/check before it is served or
//     published to the cache. The checker re-derives the dependence edges
//     from the compiled code and re-checks the paper's synchronization
//     conditions, resource feasibility and deadlock freedom without sharing
//     code with the schedulers; cache hits therefore only ever serve
//     schedules that already passed. A rejected schedule degrades onto the
//     fallback like any other stage failure; fresh compilations
//     additionally run the synchronization linter (LoopResult.Lint).
//   - Fault injection: Options.FaultHook (see internal/faults) is probed at
//     every stage boundary so chaos tests can drive each failure path
//     deterministically.
package pipeline

import (
	"context"
	"crypto/sha256"
	"errors"
	"fmt"
	"runtime"
	"runtime/debug"
	"strconv"
	"sync"
	"time"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/model"
	"doacross/internal/obs"
	"doacross/internal/passes"
	"doacross/internal/sim"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// Request is one loop to schedule. Exactly one of Source and Loop must be
// set; Loop wins when both are.
type Request struct {
	// Name labels the loop in results (defaults to "loop<index>").
	Name string
	// Source is unparsed loop source.
	Source string
	// Loop is an already parsed loop.
	Loop *lang.Loop
	// N overrides Options.N for this request (0 = use the batch default).
	N int
	// ID is an optional correlation ID (e.g. the daemon's X-Request-Id). It
	// is attached to the request's observer span so service logs, span
	// trees and flight-recorder dumps can be joined on it; it never enters
	// cache or coalescing keys.
	ID string
}

// name returns the request's label in results and fault probes.
func (r Request) name(idx int) string {
	if r.Name != "" {
		return r.Name
	}
	return fmt.Sprintf("loop%d", idx)
}

// Options configures a batch run. The zero value schedules on the paper's
// 4-issue machine with the program-order list baseline, n=100, GOMAXPROCS
// workers, no cache, no deadline and a private metrics registry.
type Options struct {
	// Workers is the worker-pool size; 0 means GOMAXPROCS.
	Workers int
	// Machines are the configurations to schedule each loop on; empty means
	// the paper's 4-issue(#FU=1) machine.
	Machines []dlx.Config
	// N is the default trip count for simulation (0 = 100, the paper's).
	N int
	// Window is the signal hardware window passed to the simulator
	// (0 = unbounded).
	Window int
	// Baseline selects the list-scheduling priority.
	Baseline core.ListPriority
	// Compile configures the compilation pass pipeline (optional unroll/
	// migrate passes, if-conversion, flow-only synchronization, artifact
	// dumps). Tracer is overridden: per-pass latencies always land in the
	// batch's metrics registry.
	//
	// Compile.Backend additionally selects the scheduling backend that
	// serves the synchronization-aware slot of every result ("" = "sync",
	// the paper's heuristic; see passes.BackendNames). The "exact" backend
	// evaluates its objective at each request's trip count unless
	// Compile.Exact.N pins one, and its budget-exhausted (non-optimal)
	// results are never published to the schedule cache.
	Compile passes.Options
	// Cache, when non-nil, memoizes all three stages across loops and
	// batches: compilations by source text, schedules by DFG fingerprint +
	// machine + scheduler options, and timings additionally by trip count
	// and window. Sweeping trip counts or machines over a fixed corpus
	// recompiles and reschedules nothing. Degraded (fallback) results are
	// never published to the cache.
	Cache *Cache
	// Disk, when non-nil, is the crash-safe persistent tier under Cache:
	// every fresh, verified, non-degraded, cacheable result is also written
	// through to it (atomic rename + checksum, see DiskStore), and LoadDisk
	// restores it into a Cache on startup so restarts come up warm. Disk
	// write failures never fail a request — they are counted by the store.
	// Requires Cache to be useful, but is consulted on no hot path: reads
	// happen only in LoadDisk.
	Disk *DiskStore
	// Metrics, when non-nil, receives this batch's counters (pass one
	// registry to several batches to aggregate). Otherwise a private
	// registry is used and returned in Batch.Stats.
	Metrics *Metrics
	// Deadline bounds the whole batch (0 = none). When it expires, requests
	// not yet finished fail with context.DeadlineExceeded errors; completed
	// results are returned as usual, in request order.
	Deadline time.Duration
	// RequestTimeout bounds each request (0 = none), checked between the
	// compile, schedule and simulate stages.
	RequestTimeout time.Duration
	// FaultHook, when non-nil, is probed with (stage, request name) at the
	// start of the "compile", "schedule", "check" and "simulate" stages, once
	// per request at "cache" consultation, before every compilation pass
	// (with the pass name as the stage) and before the "fallback" of a
	// degraded machine result. A returned error fails the stage — subject
	// to the same fallback rules as organic failures, and a failed fallback
	// fails the request — and a "cache" error drops the cached entries for
	// the request (forcing recompute). A hook panic is isolated like any
	// stage panic. internal/faults provides a seeded deterministic
	// implementation; production batches leave it nil.
	FaultHook func(stage, name string) error
	// Utilization additionally traces every simulation with the machine-
	// level tracer (sim.Tracer) and attaches the derived utilization
	// reports (per-FU occupancy, issue-slot efficiency, stall-cause
	// histogram) to each MachineResult. The tracer's attribution books are
	// verified against the timing counters on every traced run. Cached
	// timings carry whatever the original run recorded — a hit from an
	// untraced run has nil reports (best effort, like span observation).
	Utilization bool
	// Observer, when non-nil, records a span per batch, request, stage and
	// compilation pass into its bounded ring buffer (see internal/obs),
	// reconstructible as a batch → request → stage → pass tree and
	// exportable as a Chrome trace. A nil Observer costs one nil check per
	// would-be span.
	Observer *obs.Recorder
}

func (o Options) workers() int {
	if o.Workers > 0 {
		return o.Workers
	}
	return runtime.GOMAXPROCS(0)
}

func (o Options) n() int {
	if o.N > 0 {
		return o.N
	}
	return 100
}

func (o Options) machines() []dlx.Config {
	if len(o.Machines) > 0 {
		return o.Machines
	}
	return []dlx.Config{dlx.Standard(4, 1)}
}

// salt renders the scheduling-relevant options into the cache-key salt,
// "base=%d sync=false/false/false/false best=false backend=%s". The backend
// name is part of it: the same DFG on the same machine schedules differently
// under different backends, and cached entries must never cross. The fixed
// middle is where two retired options rendered their defaults; it stays so
// every persisted entry and client-visible key remains valid.
func (o Options) salt() string {
	b := make([]byte, 0, 80)
	b = strconv.AppendInt(append(b, "base="...), int64(o.Baseline), 10)
	b = append(b, " sync=false/false/false/false best=false backend="...)
	return string(append(b, o.backendName()...))
}

// backendName normalizes Compile.Backend ("" is the historical "sync").
func (o Options) backendName() string {
	if o.Compile.Backend == "" {
		return "sync"
	}
	return o.Compile.Backend
}

// backendScheduler resolves the configured scheduling backend for a request
// simulated with trip count n. The exact backend's objective T = (n/d)(i-j)+l
// depends on the trip count, so unless Compile.Exact.N pins one it is
// evaluated at the trip count the result will be simulated (and audited) at.
func (o Options) backendScheduler(n int) (core.Scheduler, error) {
	ex := o.Compile.Exact
	if ex.N == 0 {
		ex.N = n
	}
	return passes.Backend(o.Compile.Backend, ex)
}

// compileSalt renders the compile-relevant options into the compile-memo
// key, "u=%d mig=%v noif=%v flow=%v dump=%s" with the dumps comma-joined:
// pass selection and artifact dumps change what a compilation produces.
func (o Options) compileSalt() string {
	b := make([]byte, 0, 64)
	b = strconv.AppendInt(append(b, "u="...), int64(o.Compile.Unroll), 10)
	b = strconv.AppendBool(append(b, " mig="...), o.Compile.Migrate)
	b = strconv.AppendBool(append(b, " noif="...), o.Compile.NoIfConvert)
	b = strconv.AppendBool(append(b, " flow="...), o.Compile.FlowOnly)
	b = append(b, " dump="...)
	for i, d := range o.Compile.Dump {
		if i > 0 {
			b = append(b, ',')
		}
		b = append(b, d...)
	}
	return string(b)
}

// Fault-probe stage names (the compilation passes are probed under their own
// pass names). These mirror internal/faults' stage constants without
// importing it: the hook signature is plain func values in both directions.
const (
	stageCompile  = "compile"
	stageCache    = "cache"
	stageFallback = "fallback"
)

// MachineResult is one loop's outcome on one machine configuration.
type MachineResult struct {
	// Machine is the configuration name.
	Machine string
	// Key is the schedule-cache key of this scheduling problem.
	Key dfg.Fingerprint
	// List and Sync are the baseline and synchronization-aware schedules.
	List, Sync *core.Schedule
	// ListTime and SyncTime are simulated parallel execution times for the
	// loop's trip count.
	ListTime, SyncTime int
	// ListStalls and SyncStalls are the simulators' stall-cycle counts.
	ListStalls, SyncStalls int
	// ListLBD and SyncLBD count synchronization pairs left lexically
	// backward by each schedule; ListLFD and SyncLFD the pairs placed
	// lexically forward (together they partition the sync arcs).
	ListLBD, SyncLBD int
	ListLFD, SyncLFD int
	// ListSignals and SyncSignals count Send_Signal issues during each
	// schedule's simulation (paper-level synchronization traffic).
	ListSignals, SyncSignals int
	// Improvement is the paper's Table 3 percentage, list vs sync.
	Improvement float64
	// Backend names the scheduler that produced the Sync slot ("sync" unless
	// Options.Compile.Backend selected another; see passes.Backend).
	Backend string
	// PredictedT is the backend's closed-form objective T = (n/d)(i-j)+l for
	// the served Sync schedule at this request's trip count.
	PredictedT int
	// Optimal reports that the backend proved PredictedT optimal (always
	// false for the heuristic backends, which claim nothing). A
	// budget-exhausted exact result is explicitly non-optimal and is never
	// published to the schedule cache.
	Optimal bool
	// LowerBound is the backend's proven lower bound on the objective (0 when
	// the backend proves none; equals PredictedT when Optimal).
	LowerBound int
	// SearchNodes counts branch-and-bound nodes expanded by the exact
	// backend (0 for heuristics).
	SearchNodes int64
	// BackendNote carries the backend's diagnostic, e.g. the exact solver's
	// budget-exhaustion note ("" when the result is clean).
	BackendNote string
	// CacheHit reports whether the schedules came from the cache.
	CacheHit bool
	// ListUtil and SyncUtil are the machine-level utilization reports of
	// the traced simulations (nil unless Options.Utilization, and nil on
	// cache hits recorded by untraced runs).
	ListUtil, SyncUtil *sim.Utilization
	// Degraded reports that a scheduler, verifier or simulator failure
	// replaced both schedules by the verified program-order list fallback;
	// List and Sync then hold the one fallback, which passed
	// Schedule.Validate and internal/check before being returned.
	Degraded bool
	// DegradedReason is the failure that triggered the fallback ("" unless
	// Degraded).
	DegradedReason string
}

// LoopResult is one request's outcome.
type LoopResult struct {
	// Index is the request's position in the batch.
	Index int
	// Name labels the loop.
	Name string
	// Err is the first stage error; the remaining fields are partial when
	// it is non-nil.
	Err error
	// N is the trip count the loop was simulated with.
	N int
	// Compiled pipeline artifacts.
	Loop     *lang.Loop
	Analysis *dep.Analysis
	SyncLoop *syncop.Loop
	Prog     *tac.Program
	Graph    *dfg.Graph
	// Trace is the pass manager's record of this loop's compilation:
	// per-pass timings, dumped artifacts (Options.Compile.Dump) and
	// positioned diagnostics. Shared with other requests that hit the same
	// compile-memo entry; treat as read-only.
	Trace *passes.Trace
	// Diags are the compile diagnostics (warnings, and the error when
	// Err != nil) with source positions.
	Diags diag.List
	// Lint are the synchronization-linter findings over the compiled loop
	// (internal/check): redundant waits, dead sends, suspicious distances.
	// Purely advisory here — lint errors fail the compilation only under
	// Options.Compile.Verify.
	Lint diag.List
	// Machines holds one result per Options.Machines entry, in order.
	Machines []MachineResult
}

// DoacrossSource renders the synchronized loop.
func (r *LoopResult) DoacrossSource() string { return r.SyncLoop.String() }

// Listing renders the compiled three-address code.
func (r *LoopResult) Listing() string { return tac.Listing(r.Prog.Instrs) }

// GraphInfo summarizes the data-flow graph partition.
func (r *LoopResult) GraphInfo() string { return r.Graph.SyncInfo() }

// Degraded reports whether any machine's result was served by the verified
// program-order fallback schedule.
func (r *LoopResult) Degraded() bool {
	for i := range r.Machines {
		if r.Machines[i].Degraded {
			return true
		}
	}
	return false
}

// Batch is the result of one pipeline run.
type Batch struct {
	// Loops holds per-request results in request order.
	Loops []LoopResult
	// Stats is the metrics snapshot taken when the batch finished. With a
	// shared Options.Metrics it includes earlier batches' counts.
	Stats Stats
}

// FirstErr returns the first per-loop error, if any.
func (b *Batch) FirstErr() error {
	for i := range b.Loops {
		if err := b.Loops[i].Err; err != nil {
			return fmt.Errorf("%s: %w", b.Loops[i].Name, err)
		}
	}
	return nil
}

// compileEntry is the cached product of the compilation passes for one
// source text.
type compileEntry struct {
	loop     *lang.Loop
	analysis *dep.Analysis
	syncLoop *syncop.Loop
	prog     *tac.Program
	graph    *dfg.Graph
	// fp is graph's fingerprint, hashed once at compile time: every
	// schedule, time and disk key of the loop derives from it.
	fp    dfg.Fingerprint
	trace *passes.Trace
	diags diag.List
	lint  diag.List
}

// compile runs the pass manager configured by popts over loop (or, when loop
// is nil, over src) and packages the compilation with its synchronization
// lint. Under Compile.Verify the verify pass already ran the linter (and
// failed on errors); otherwise the findings are advisory. On failure the
// entry carries only the trace and the diagnostics.
func compile(ctx context.Context, popts passes.Options, loop *lang.Loop, src string) (*compileEntry, error) {
	pl := passes.New(popts)
	var pctx *passes.Context
	var err error
	if loop != nil {
		pctx, err = pl.RunLoopCtx(ctx, loop)
	} else {
		pctx, err = pl.RunSourceCtx(ctx, src)
	}
	if err != nil {
		return &compileEntry{trace: pctx.Trace, diags: pctx.Diags}, err
	}
	lint := pctx.LintFindings
	if !popts.Verify {
		lint = append(check.Lint(pctx.Loop), check.LintSync(pctx.Sync)...)
	}
	return &compileEntry{
		loop: pctx.Loop, analysis: pctx.Analysis, syncLoop: pctx.Sync,
		prog: pctx.Code, graph: pctx.Graph, fp: pctx.Graph.Fingerprint(),
		trace: pctx.Trace, diags: pctx.Diags, lint: lint,
	}, nil
}

// sourceKey addresses the compile memo: a hash of the loop's source text and
// the compile options in a key space disjoint from ConfigKey (distinct
// prefix).
func sourceKey(src, salt string) dfg.Fingerprint {
	return dfg.Fingerprint(sha256.Sum256([]byte("compile\x00" + salt + "\x00" + src)))
}

// schedEntry is the cached product of StageSchedule for one ConfigKey. The
// outcome fields mirror the backend's evidence so cache hits restore it;
// entries with optimal=false under the exact backend are never published
// (see the verify stage), so every cached exact entry carries a proof.
type schedEntry struct {
	list, sync *core.Schedule
	backend    string
	predictedT int
	// predictedAtN is the trip count predictedT was computed for when the
	// prediction is the closed-form model of a heuristic schedule (exact
	// entries carry a backend objective and are cached per trip count).
	// Heuristic entries are shared across trip counts, so a cache hit at a
	// different N must re-evaluate the model rather than serve the
	// producer's number.
	predictedAtN int
	optimal      bool
	lowerBound   int
	searchNodes  int64
	note         string
}

// fillOutcome copies a schedule entry's backend evidence into the result,
// re-deriving the closed-form prediction at the request's own trip count
// when the entry was produced for a different one.
func (e *schedEntry) fillOutcome(mr *MachineResult, n int) {
	mr.Backend = e.backend
	mr.PredictedT = e.predictedT
	if e.predictedAtN != 0 && e.predictedAtN != n && e.sync != nil {
		mr.PredictedT = model.Predict(e.sync, n)
	}
	mr.Optimal = e.optimal
	mr.LowerBound = e.lowerBound
	mr.SearchNodes = e.searchNodes
	mr.BackendNote = e.note
}

// cacheable reports whether a verified, non-degraded entry may be published
// to the schedule cache. Budget-exhausted (non-optimal) exact results never
// are: a bigger budget could still improve them, and a cache hit would
// launder "budget exhausted" into a clean-looking proven answer.
func (e *schedEntry) cacheable() bool {
	return e.backend != "exact" || e.optimal
}

// simTimes are a schedule pair's simulated counters at one trip count and
// window, in the cache and on disk (diskPayload.Times) alike.
type simTimes struct {
	ListTime, SyncTime       int
	ListStalls, SyncStalls   int
	ListLBD, SyncLBD         int
	ListLFD, SyncLFD         int
	ListSignals, SyncSignals int
}

// timeEntry is the cached product of StageSimulate for one ConfigKey+n.
type timeEntry struct {
	simTimes
	// Machine-level utilization reports, recorded only when the batch ran
	// with Options.Utilization (nil otherwise; a cache hit serves whatever
	// the recording run kept).
	listUtil, syncUtil *sim.Utilization
}

// Run schedules every request and returns per-loop results plus aggregate
// stats. Per-loop failures land in LoopResult.Err (see Batch.FirstErr); Run
// itself only fails on unusable options.
func Run(reqs []Request, opt Options) (*Batch, error) {
	return RunContext(context.Background(), reqs, opt)
}

// RunContext is Run under a cancellation context, threaded through the
// worker pool and checked between the compile, schedule and simulate stages
// of every request. Options.Deadline additionally bounds the batch and
// Options.RequestTimeout each request. When the context expires, the
// requests cut off fail individually with the context's error — results are
// still returned for every request, in request order.
func RunContext(ctx context.Context, reqs []Request, opt Options) (*Batch, error) {
	machines := opt.machines()
	for _, m := range machines {
		if err := m.Validate(); err != nil {
			return nil, fmt.Errorf("pipeline: %w", err)
		}
	}
	// Fail fast on an unknown backend name, before any compilation work.
	if _, err := opt.backendScheduler(opt.n()); err != nil {
		return nil, fmt.Errorf("pipeline: %w", err)
	}
	metrics := opt.Metrics
	if metrics == nil {
		metrics = NewMetrics()
	}
	metrics.AttachCache(opt.Cache)
	if opt.Deadline > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.Deadline)
		defer cancel()
	}
	keys := newSalts(opt)
	firsts, done := repeats(reqs, opt)
	batch := &Batch{Loops: make([]LoopResult, len(reqs))}
	jobs := make(chan int)
	var wg sync.WaitGroup
	workers := opt.workers()
	if workers > len(reqs) && len(reqs) > 0 {
		workers = len(reqs)
	}
	bspan := opt.Observer.Start(obs.KindBatch, "batch", obs.Span{})
	metrics.QueueAdd(int64(len(reqs)))
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			// One scheduler scratch per worker: scheduling cache misses reuse
			// its buffers across requests (results are cloned before they are
			// published, so entries never alias scratch storage).
			var sc lazyScratch
			for i := range jobs {
				metrics.QueueAdd(-1)
				metrics.WorkerStart()
				if firsts != nil && firsts[i] != i {
					select {
					case <-done[firsts[i]]:
					case <-ctx.Done():
					}
				}
				batch.Loops[i] = runOne(ctx, i, reqs[i], machines, opt, &keys, &sc, metrics, bspan)
				if done != nil && done[i] != nil {
					close(done[i])
				}
				metrics.WorkerDone()
			}
		}()
	}
feed:
	for i := range reqs {
		select {
		case jobs <- i:
		case <-ctx.Done():
			// The batch is cut off: fail the requests not yet handed to a
			// worker (workers notice the same context between stages).
			for j := i; j < len(reqs); j++ {
				name := reqs[j].name(j)
				metrics.QueueAdd(-1)
				batch.Loops[j] = LoopResult{
					Index: j, Name: name, N: reqs[j].N,
					Err: ctxErr(ctx, name, metrics),
				}
			}
			break feed
		}
	}
	close(jobs)
	wg.Wait()
	failed := 0
	for i := range batch.Loops {
		if batch.Loops[i].Err != nil {
			failed++
		}
	}
	opt.Observer.End(&bspan, nil,
		obs.I("requests", int64(len(reqs))),
		obs.I("workers", int64(workers)),
		obs.I("failed", int64(failed)))
	metrics.statsInto(&batch.Stats)
	return batch, nil
}

// repeats finds the requests of a cached batch that repeat an earlier one
// (same source or parsed loop, same trip count). firsts[i] is the index of
// request i's first occurrence, and done[f] is closed when first occurrence
// f finishes. A repeat waits for it and is then served from the cache it
// filled, exactly as in a serial run; requests that only share stages (the
// same loop at another trip count) share them through the cache's claims.
// Both are nil when nothing repeats.
func repeats(reqs []Request, opt Options) (firsts []int, done []chan struct{}) {
	if len(reqs) < 2 || opt.Cache == nil {
		return nil, nil
	}
	type ident struct {
		src  string
		loop *lang.Loop
		n    int
	}
	seen := make(map[ident]int, len(reqs))
	for i, r := range reqs {
		id := ident{src: r.Source, loop: r.Loop, n: r.N}
		if r.Loop != nil {
			id.src = ""
		}
		if id.n == 0 {
			id.n = opt.n()
		}
		f, ok := seen[id]
		if !ok {
			seen[id] = i
			continue
		}
		if firsts == nil {
			firsts = make([]int, len(reqs))
			for j := range firsts {
				firsts[j] = j
			}
			done = make([]chan struct{}, len(reqs))
		}
		firsts[i] = f
		if done[f] == nil {
			done[f] = make(chan struct{})
		}
	}
	return firsts, done
}

// ctxErr converts an expired context into a request error, counting the
// timeout. It must only be called when ctx.Err() != nil.
func ctxErr(ctx context.Context, name string, metrics *Metrics) error {
	metrics.Timeout()
	return fmt.Errorf("pipeline: request %s: %w", name, ctx.Err())
}

// safeStage runs f, recovering a panic into a structured diagnostic carrying
// the stage, the request name and a stack digest, and counting it — one
// poisoned loop never kills the batch.
func safeStage(stage, name string, metrics *Metrics, f func() error) (err error) {
	defer func() {
		if r := recover(); r != nil {
			metrics.Panic()
			err = diag.FromPanic(stage, name, r, debug.Stack())
		}
	}()
	return f()
}

// fallbackSchedule builds, verifies and times the degraded answer: the
// program-order list schedule, which the paper guarantees is always correct
// (if slower), served in both slots. It passes Validate and the request's
// independent verifier before use, so the service never returns an
// unverified schedule. It is a stage of its own: probed as "fallback" and
// panic-isolated like the others.
func fallbackSchedule(name string, metrics *Metrics, probe func(stage string) error,
	g *dfg.Graph, cfg dlx.Config, backend string, ver *check.Verifier, sm simulator) (entry *schedEntry, times *timeEntry, err error) {
	err = safeStage(stageFallback, name, metrics, func() error {
		if err := probe(stageFallback); err != nil {
			return err
		}
		fb, err := core.List(g, cfg, core.ProgramOrder)
		if err != nil {
			return err
		}
		if err := fb.Validate(); err != nil {
			return fmt.Errorf("fallback schedule failed validation: %w", err)
		}
		if err := check.Err(ver.Verify(fb)); err != nil {
			return err
		}
		if times, err = sm.time(fb, fb); err != nil {
			return err
		}
		entry = &schedEntry{list: fb, sync: fb, backend: backend, predictedT: model.Predict(fb, sm.opt.Hi)}
		return nil
	})
	return entry, times, err
}

// simulator times one request's schedules at its trip count and window.
type simulator struct {
	opt  sim.Options
	util bool   // trace the runs (Options.Utilization)
	loop string // the request name utilization reports carry
}

// time simulates a schedule pair (the fallback pair, one schedule twice, is
// simulated once). Traced runs verify the tracer's attribution books against
// the timing counters; untraced ones are plain sim.Time.
func (sm simulator) time(list, sync *core.Schedule) (*timeEntry, error) {
	lt, lu, err := sm.timeOne(list)
	if err != nil {
		return nil, err
	}
	st, su := lt, lu
	if sync != list {
		if st, su, err = sm.timeOne(sync); err != nil {
			return nil, err
		}
	}
	te := &timeEntry{listUtil: lu, syncUtil: su}
	te.ListTime, te.ListStalls, te.ListSignals = lt.Total, lt.StallCycles, lt.SignalsSent
	te.SyncTime, te.SyncStalls, te.SyncSignals = st.Total, st.StallCycles, st.SignalsSent
	te.ListLBD, te.ListLFD = arcSplit(list)
	te.SyncLBD, te.SyncLFD = arcSplit(sync)
	return te, nil
}

func (sm simulator) timeOne(s *core.Schedule) (sim.Timing, *sim.Utilization, error) {
	if !sm.util {
		tm, err := sim.Time(s, sm.opt)
		return tm, nil, err
	}
	tm, u, err := sim.Utilize(s, sm.opt)
	if err == nil {
		u.Loop = sm.loop
	}
	return tm, u, err
}

// validate rejects malformed requests before they reach the parser or the
// simulator, with a positioned diagnostic.
func (r Request) validate(idx int) *diag.Diagnostic {
	pos := diag.Pos{}
	if r.Loop != nil {
		pos = r.Loop.Pos()
	}
	if r.Loop == nil && r.Source == "" {
		return diag.Errorf("pipeline", pos, "request %s has neither Source nor Loop", r.name(idx))
	}
	if r.N < 0 {
		return diag.Errorf("pipeline", pos, "request %s: negative trip count N=%d", r.name(idx), r.N)
	}
	return nil
}

// lazyScratch is a worker's scheduler scratch, allocated on first use: a
// worker that serves only cache hits never needs one.
type lazyScratch struct{ sc *core.Scratch }

func (l *lazyScratch) get() *core.Scratch {
	if l.sc == nil {
		l.sc = core.NewScratch()
	}
	return l.sc
}

// runOne pushes one request through compile → schedule → simulate. keys
// are opt's rendered key salts; scratch is the calling worker's reusable
// scheduler scratch (never shared across goroutines).
func runOne(ctx context.Context, idx int, req Request, machines []dlx.Config, opt Options, keys *salts, scratch *lazyScratch, metrics *Metrics, bspan obs.Span) (res LoopResult) {
	res = LoopResult{Index: idx, Name: req.name(idx), N: req.N}
	rspan := opt.Observer.Start(obs.KindRequest, res.Name, bspan)
	defer func() {
		if opt.Observer == nil {
			return
		}
		attrs := [2]obs.Attr{obs.I("index", int64(idx))}
		n := 1
		if req.ID != "" {
			attrs[1], n = obs.S("request_id", req.ID), 2
		}
		opt.Observer.End(&rspan, res.Err, attrs[:n]...)
	}()
	// Last line of defense: a panic that escapes the per-stage recovery
	// (e.g. in glue code or a fault hook outside a stage) fails this request
	// only.
	defer func() {
		if r := recover(); r != nil {
			metrics.Panic()
			res.Err = diag.FromPanic("pipeline", res.Name, r, debug.Stack())
		}
	}()
	if d := req.validate(idx); d != nil {
		res.Err = d
		return res
	}
	if res.N == 0 {
		res.N = opt.n()
	}
	if ctx.Err() != nil {
		res.Err = ctxErr(ctx, res.Name, metrics)
		return res
	}
	if opt.RequestTimeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, opt.RequestTimeout)
		defer cancel()
	}
	probe := func(stage string) error {
		if opt.FaultHook == nil {
			return nil
		}
		return opt.FaultHook(stage, res.Name)
	}

	// Cache health: one probe per request decides whether this request may
	// read the shared cache (an injected "corrupt" fault drops the cached
	// entries, forcing a recompute; recomputed values are safe to publish).
	useCache := opt.Cache != nil
	if useCache {
		if err := probe(stageCache); err != nil {
			useCache = false
		}
	}

	// Each cache miss this request computes is claimed (Cache.claim), so
	// concurrent identical misses wait for one computation. A claim is
	// released as soon as its value is published or will not be; the
	// deferred release covers every early return.
	var release func()
	unclaim := func() {
		if release != nil {
			release()
			release = nil
		}
	}
	defer unclaim()

	// Compile through the pass manager, via the content-addressed memo when
	// a cache is attached: identical source text (or identically rendering
	// parsed loops) shares one immutable compilation, trace included. The
	// key is computed whenever a cache is attached — even when a cache fault
	// disabled reads for this request — so the recompute below publishes
	// under this request's own fingerprint, never the zero key.
	src := req.Source
	if req.Loop != nil && (opt.Cache != nil || opt.Disk != nil) {
		src = req.Loop.String()
	}
	var srcKey dfg.Fingerprint
	var compiled *compileEntry
	if opt.Cache != nil {
		srcKey = sourceKey(src, keys.compile)
	}
	cspan := opt.Observer.Start(obs.KindStage, stageCompile, rspan)
	compileCached := false
	endCompile := func(err error) {
		if opt.Observer == nil {
			return
		}
		opt.Observer.End(&cspan, err, obs.B("cache_hit", compileCached))
	}
	if useCache {
		var v any
		var ok bool
		if v, ok, release = opt.Cache.claim(ctx, srcKey); ok {
			compiled = v.(*compileEntry)
			compileCached = true
			metrics.CacheHit()
		} else {
			metrics.CacheMiss()
		}
	}
	if compiled == nil {
		if err := probe(stageCompile); err != nil {
			res.Err = fmt.Errorf("pipeline: compile %s: %w", res.Name, err)
			endCompile(res.Err)
			return res
		}
		popts := opt.Compile
		popts.Tracer = metrics
		popts.FaultHook = opt.FaultHook
		popts.Request = res.Name
		popts.Observer = opt.Observer
		popts.ParentSpan = cspan
		compiled, res.Err = compile(ctx, popts, req.Loop, req.Source)
		if res.Err != nil {
			res.Trace, res.Diags = compiled.trace, compiled.diags
			// A deadline/cancellation that fired inside the pass manager is
			// a timeout like any other: count it and wrap it consistently.
			if cerr := ctx.Err(); cerr != nil && errors.Is(res.Err, cerr) {
				res.Err = ctxErr(ctx, res.Name, metrics)
			}
			endCompile(res.Err)
			return res
		}
		metrics.LintFindings(int64(len(compiled.lint)))
		de, di, dc := compiled.analysis.Counts()
		metrics.ObserveDeps(int64(de), int64(di), int64(dc))
		if opt.Cache != nil {
			v, _ := opt.Cache.Put(srcKey, compiled)
			compiled = v.(*compileEntry)
		}
		unclaim()
	}
	endCompile(nil)
	res.Loop = compiled.loop
	res.Analysis = compiled.analysis
	res.SyncLoop = compiled.syncLoop
	res.Prog = compiled.prog
	res.Graph = compiled.graph
	res.Trace = compiled.trace
	res.Diags = compiled.diags
	res.Lint = compiled.lint

	fp := compiled.fp
	exSalt := keys.exactSalt(res.N)
	nwSalt := keys.nwSalt(res.N)
	sm := simulator{opt: sim.Options{Lo: 1, Hi: res.N, Window: opt.Window}, util: opt.Utilization, loop: res.Name}
	// ver verifies every schedule this request builds for the loop, on
	// every machine, against one derivation of the program's edges. It is
	// made at the first schedule that needs it (a cache hit never verifies)
	// and dies with the request: it is never cached with the compilation.
	var ver *check.Verifier
	verifier := func() *check.Verifier {
		if ver == nil {
			ver = check.NewVerifier(compiled.prog)
		}
		return ver
	}
	res.Machines = make([]MachineResult, len(machines))
	for k, cfg := range machines {
		if ctx.Err() != nil {
			res.Err = ctxErr(ctx, res.Name, metrics)
			return res
		}
		mr := &res.Machines[k]
		mr.Machine = cfg.Name
		mr.Key = keys.schedKey(fp, cfg, exSalt)
		// fail is the first stage failure on this machine: it skips the
		// remaining stages and degrades the result onto the fallback.
		var fail error

		// Schedule, through the cache when one is attached.
		sspan := opt.Observer.Start(obs.KindStage, StageSchedule, rspan)
		var entry *schedEntry
		if useCache {
			var v any
			var ok bool
			if v, ok, release = opt.Cache.claim(ctx, mr.Key); ok {
				entry = v.(*schedEntry)
				mr.CacheHit = true
				metrics.CacheHit()
			}
		}
		fresh := entry == nil
		if fresh {
			if useCache {
				metrics.CacheMiss()
			}
			e := &schedEntry{backend: opt.backendName()}
			fail = metrics.timed(StageSchedule, func() error {
				return safeStage(StageSchedule, res.Name, metrics, func() error {
					if err := probe(StageSchedule); err != nil {
						return err
					}
					sc := scratch.get()
					lst, err := sc.List(res.Graph, cfg, opt.Baseline)
					if err != nil {
						return err
					}
					// Clone: the entry may be cached and outlive the worker's
					// scratch, whose buffers the next call recycles.
					e.list = lst.Clone()
					// The synchronization-aware slot is served by the
					// configured backend (the paper's heuristic by default,
					// resolved through the Scheduler seam).
					sched, err := opt.backendScheduler(res.N)
					if err != nil {
						return err
					}
					if ss, ok := sched.(core.ScratchScheduler); ok {
						// Heuristic backends schedule into the worker scratch;
						// only the surviving schedule is materialized.
						s, err := ss.ScheduleScratch(sc, res.Graph, cfg)
						if err != nil {
							return err
						}
						e.sync = s.Clone()
					} else {
						out, err := sched.Schedule(res.Graph, cfg)
						if err != nil {
							return err
						}
						e.sync = out.Schedule
						e.predictedT = out.T
						e.optimal = out.Optimal
						e.lowerBound = out.LowerBound
						e.searchNodes = out.Nodes
						e.note = out.Note
					}
					if e.predictedT == 0 && e.sync != nil {
						// Heuristic backends attach no objective; report the
						// closed-form prediction for the served schedule.
						e.predictedT = model.Predict(e.sync, res.N)
						e.predictedAtN = res.N
					}
					// Post-hoc verification of the synchronization-aware
					// schedule: a scheduler bug degrades the answer, it does
					// not ship an invalid schedule.
					if err := e.sync.Validate(); err != nil {
						return fmt.Errorf("%s schedule failed validation: %w", e.backend, err)
					}
					return nil
				})
			})
			entry = e
		}
		if opt.Observer != nil {
			opt.Observer.End(&sspan, nil, obs.S("machine", cfg.Name),
				obs.B("cache_hit", mr.CacheHit), obs.B("degraded", fail != nil))
		}

		// Independent verification of every freshly built schedule before
		// it is served or published: internal/check re-derives the
		// dependence edges from the compiled code (sharing no code with the
		// schedulers) and re-checks the synchronization conditions, resource
		// feasibility and deadlock freedom. A rejected schedule degrades
		// like any other stage failure. Only verified entries reach the
		// cache, so cache hits serve schedules that already passed and skip
		// the stage.
		if fresh && fail == nil {
			vr := verifier()
			vspan := opt.Observer.Start(obs.KindStage, StageVerify, rspan)
			fail = metrics.timed(StageVerify, func() error {
				return safeStage(StageVerify, res.Name, metrics, func() error {
					if err := probe(StageVerify); err != nil {
						return err
					}
					if err := check.Err(vr.Verify(entry.list)); err != nil {
						return err
					}
					return check.Err(vr.Verify(entry.sync))
				})
			})
			if fail != nil {
				metrics.Rejected()
			} else {
				metrics.Verified()
				if useCache && entry.cacheable() {
					v, _ := opt.Cache.Put(mr.Key, entry)
					entry = v.(*schedEntry)
				}
			}
			if opt.Observer != nil {
				opt.Observer.End(&vspan, nil, obs.S("machine", cfg.Name),
					obs.B("degraded", fail != nil))
			}
		}
		unclaim()

		if ctx.Err() != nil {
			res.Err = ctxErr(ctx, res.Name, metrics)
			return res
		}

		// Simulate; timings additionally key on trip count and window.
		mspan := opt.Observer.Start(obs.KindStage, StageSimulate, rspan)
		var times *timeEntry
		timeCached := false
		if fail == nil {
			timeKey := keys.timeKey(fp, cfg, nwSalt, exSalt)
			// Timings of schedules that may not be cached (non-optimal exact
			// results, which depend on the search budget) stay out of the
			// time cache too — the budget is not part of the key.
			if useCache && entry.cacheable() {
				var v any
				var ok bool
				if v, ok, release = opt.Cache.claim(ctx, timeKey); ok {
					times = v.(*timeEntry)
					timeCached = true
					metrics.CacheHit()
				} else {
					metrics.CacheMiss()
				}
			}
			if times == nil {
				fail = metrics.timed(StageSimulate, func() error {
					return safeStage(StageSimulate, res.Name, metrics, func() error {
						if err := probe(StageSimulate); err != nil {
							return err
						}
						var err error
						times, err = sm.time(entry.list, entry.sync)
						return err
					})
				})
				if fail == nil && useCache && entry.cacheable() {
					v, _ := opt.Cache.Put(timeKey, times)
					times = v.(*timeEntry)
				}
				unclaim()
			}
		}

		// The one degrade path: whichever stage failed, the verified and
		// timed program-order fallback serves every slot. Degraded results
		// never touch the caches; a fallback that fails too fails the
		// request, as nothing verified is left to serve.
		if fail != nil {
			var err error
			entry, times, err = fallbackSchedule(res.Name, metrics, probe, res.Graph, cfg, opt.backendName(), verifier(), sm)
			if err != nil {
				res.Err = fmt.Errorf("pipeline: %s on %s: %v (fallback failed: %w)", res.Name, cfg.Name, fail, err)
				endSim(mspan, res.Err, mr, nil, false, opt.Observer)
				return res
			}
			mr.Degraded, mr.DegradedReason = true, fail.Error()
			mr.CacheHit = false // any cached schedules were replaced by the fallback
			metrics.Fallback()
		}
		mr.List, mr.Sync = entry.list, entry.sync
		entry.fillOutcome(mr, res.N)
		mr.ListTime, mr.SyncTime = times.ListTime, times.SyncTime
		mr.ListUtil, mr.SyncUtil = times.listUtil, times.syncUtil
		mr.ListStalls, mr.SyncStalls = times.ListStalls, times.SyncStalls
		mr.ListLBD, mr.SyncLBD = times.ListLBD, times.SyncLBD
		mr.ListLFD, mr.SyncLFD = times.ListLFD, times.SyncLFD
		mr.ListSignals, mr.SyncSignals = times.ListSignals, times.SyncSignals
		mr.Improvement = model.Speedup(times.ListTime, times.SyncTime)
		// Independent timing audit: the simulated total must cover at least
		// one full iteration and at least the closed-form lower bound
		// T = (n/d)(i-j) + l of the served schedule. A violation means the
		// simulator and the analytical model disagree about this schedule —
		// there is no better answer to fall back on, so the request fails.
		if err := check.Err(check.VerifyTiming(mr.Sync, mr.SyncTime, res.N)); err != nil {
			metrics.Error(StageVerify)
			res.Err = fmt.Errorf("pipeline: verify %s on %s: %w", res.Name, cfg.Name, err)
			endSim(mspan, res.Err, mr, times, timeCached, opt.Observer)
			return res
		}
		// Write-through to the persistent tier: freshly simulated, verified,
		// non-degraded, cacheable results survive restarts. Failures are
		// counted by the store and never fail the request.
		if opt.Disk != nil && !timeCached && !mr.Degraded && entry.cacheable() {
			persistResult(opt.Disk, res.Name, src, keys, cfg, fp, res.N, entry, times)
		}
		// Paper-level counters describe the schedule actually served (the
		// synchronization-aware one, or the fallback standing in for it).
		metrics.ObserveSim(int64(times.SyncSignals), int64(times.SyncStalls),
			int64(times.SyncLBD), int64(times.SyncLFD))
		metrics.ObserveUtil(times.syncUtil)
		endSim(mspan, nil, mr, times, timeCached, opt.Observer)
	}
	return res
}

// arcSplit partitions a schedule's synchronization pairs into lexically
// backward and forward arcs.
func arcSplit(s *core.Schedule) (lbd, lfd int) {
	lbd = s.NumLBD()
	return lbd, len(s.PairSpans()) - lbd
}

// endSim finishes a simulate-stage span with the paper-level attributes of
// the served result (times may be nil when the stage failed outright). On a
// nil recorder it returns before building any attributes — the happy path of
// an unobserved batch allocates nothing here.
func endSim(sp obs.Span, err error, mr *MachineResult, times *timeEntry, cached bool, rec *obs.Recorder) {
	if rec == nil {
		return
	}
	// A fixed array: End copies what it keeps, so the attributes stay on
	// the stack.
	attrs := [9]obs.Attr{
		obs.S("machine", mr.Machine),
		obs.B("cache_hit", cached),
		obs.B("degraded", mr.Degraded),
	}
	n := 3
	if times != nil {
		attrs[3] = obs.I("signals_sent", int64(times.SyncSignals))
		attrs[4] = obs.I("wait_stall_cycles", int64(times.SyncStalls))
		attrs[5] = obs.I("lbd_arcs", int64(times.SyncLBD))
		attrs[6] = obs.I("lfd_arcs", int64(times.SyncLFD))
		attrs[7] = obs.I("sync_cycles", int64(times.SyncTime))
		attrs[8] = obs.I("list_cycles", int64(times.ListTime))
		n = 9
	}
	rec.End(&sp, err, attrs[:n]...)
}
