package pipeline

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"doacross/internal/passes"
	"doacross/internal/sim"
)

// Stage names of the batch pipeline's own stages. Compilation is no longer
// one coarse "compile" stage: the pass manager (internal/passes) reports
// each compilation pass under its own name (parse, ifconvert, analyze,
// syncinsert, codegen, graph, plus the optional unroll/migrate), so the
// registry holds per-pass latency buckets next to these two.
const (
	// StageSchedule covers building the list and backend schedules.
	StageSchedule = "schedule"
	// StageVerify covers the independent post-schedule verification of the
	// schedules about to be served (internal/check re-derives the dependence
	// edges and re-checks the synchronization conditions; the name matches
	// the check package's diagnostic stage).
	StageVerify = "check"
	// StageSimulate covers timing the schedules.
	StageSimulate = "simulate"
)

// stageOrder fixes the reporting order: compilation passes in pipeline
// order, then scheduling and simulation; stages the registry saw that are
// not listed here sort alphabetically after them.
var stageOrder = []string{
	passes.PassParse, passes.PassUnroll, passes.PassIfConvert, passes.PassAnalyze,
	passes.PassMigrate, passes.PassSyncInsert, passes.PassCodegen, passes.PassGraph,
	StageSchedule, StageVerify, StageSimulate,
}

// stageRank maps a stage name to its reporting position.
func stageRank(name string) int {
	for i, s := range stageOrder {
		if s == name {
			return i
		}
	}
	return len(stageOrder)
}

// Latency bucket upper bounds; the final bucket is unbounded.
var bucketBounds = [...]time.Duration{
	10 * time.Microsecond,
	100 * time.Microsecond,
	time.Millisecond,
	10 * time.Millisecond,
	100 * time.Millisecond,
	time.Second,
}

// numBuckets is len(bucketBounds) plus the overflow bucket.
const numBuckets = len(bucketBounds) + 1

// bucketLabel names bucket i for reports.
func bucketLabel(i int) string {
	if i < len(bucketBounds) {
		return "<" + bucketBounds[i].String()
	}
	return ">=" + bucketBounds[len(bucketBounds)-1].String()
}

// stageMetrics is the hot-path side of one stage: atomic counters only, safe
// for concurrent workers without locks.
type stageMetrics struct {
	name    string
	count   atomic.Int64
	errs    atomic.Int64
	totalNS atomic.Int64
	maxNS   atomic.Int64
	buckets [numBuckets]atomic.Int64
}

// Metrics is the embedded metrics registry of a pipeline: per-stage counts,
// error counts and latency buckets keyed by stage name, plus cache hit/miss
// counters. Stages register themselves on first observation, so the
// registry needs no advance knowledge of which optional passes a pipeline
// runs. All methods are safe for concurrent use; the zero value is ready.
//
// Metrics implements passes.Tracer, so a registry can be handed straight to
// the pass manager for per-pass latency tracking.
type Metrics struct {
	mu     sync.RWMutex
	stages map[string]*stageMetrics
	// ranked holds the same stages in reporting order (stageRank, then
	// name), kept sorted as stages register, so a snapshot is a slice fill.
	ranked []*stageMetrics
	// vals holds the counters and gauges metricTable declares, indexed by
	// metric (see the matching Stats fields); the cache rows' slots stay
	// zero.
	vals [numMetrics]atomic.Int64
	// cache, when attached, supplies occupancy and eviction gauges to
	// snapshots.
	cache atomic.Pointer[Cache]
}

// NewMetrics returns an empty registry.
func NewMetrics() *Metrics { return &Metrics{} }

// stage returns the named stage's counters, registering it on first use.
func (m *Metrics) stage(name string) *stageMetrics {
	m.mu.RLock()
	s := m.stages[name]
	m.mu.RUnlock()
	if s != nil {
		return s
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if s = m.stages[name]; s != nil {
		return s
	}
	if m.stages == nil {
		m.stages = map[string]*stageMetrics{}
	}
	s = &stageMetrics{name: name}
	m.stages[name] = s
	at, _ := slices.BinarySearchFunc(m.ranked, s, compareStages)
	m.ranked = slices.Insert(m.ranked, at, s)
	return s
}

// compareStages orders stages for reports: by stageRank, then by name.
func compareStages(a, b *stageMetrics) int {
	if c := cmp.Compare(stageRank(a.name), stageRank(b.name)); c != 0 {
		return c
	}
	return strings.Compare(a.name, b.name)
}

// Observe records one completed execution of the named stage.
func (m *Metrics) Observe(name string, d time.Duration) {
	s := m.stage(name)
	s.count.Add(1)
	ns := d.Nanoseconds()
	s.totalNS.Add(ns)
	for {
		old := s.maxNS.Load()
		if ns <= old || s.maxNS.CompareAndSwap(old, ns) {
			break
		}
	}
	b := len(bucketBounds)
	for i, bound := range bucketBounds {
		if d < bound {
			b = i
			break
		}
	}
	s.buckets[b].Add(1)
}

// Error records a failed execution of the named stage.
func (m *Metrics) Error(name string) { m.stage(name).errs.Add(1) }

// ObservePass implements passes.Tracer.
func (m *Metrics) ObservePass(name string, d time.Duration) { m.Observe(name, d) }

// PassError implements passes.Tracer.
func (m *Metrics) PassError(name string) { m.Error(name) }

// PassPanic records a panic recovered inside the named compilation pass (an
// optional extension of passes.Tracer the pass manager probes for).
func (m *Metrics) PassPanic(string) { m.Panic() }

// CacheHit records a schedule-cache hit.
func (m *Metrics) CacheHit() { m.vals[mCacheHits].Add(1) }

// CacheMiss records a schedule-cache miss.
func (m *Metrics) CacheMiss() { m.vals[mCacheMisses].Add(1) }

// Panic records a recovered panic (worker- or pass-level).
func (m *Metrics) Panic() { m.vals[mPanics].Add(1) }

// Timeout records a request lost to a deadline or cancellation.
func (m *Metrics) Timeout() { m.vals[mTimeouts].Add(1) }

// Fallback records a request served by the verified program-order fallback
// schedule instead of the synchronization-aware one.
func (m *Metrics) Fallback() { m.vals[mFallbacks].Add(1) }

// Verified records one schedule set accepted by the independent
// post-schedule verifier.
func (m *Metrics) Verified() { m.vals[mVerified].Add(1) }

// Rejected records one schedule set the independent post-schedule verifier
// refused to serve.
func (m *Metrics) Rejected() { m.vals[mRejected].Add(1) }

// LintFindings records n synchronization-linter findings from one fresh
// compilation (cache hits share the original compilation's findings and are
// not recounted).
func (m *Metrics) LintFindings(n int64) { m.vals[mLintFindings].Add(n) }

// ObserveDeps records the dependence-analysis verdict counts of one fresh
// compilation (cache hits share the original compilation's analysis and are
// not recounted).
func (m *Metrics) ObserveDeps(exact, independent, conservative int64) {
	m.vals[mDepExact].Add(exact)
	m.vals[mDepIndependent].Add(independent)
	m.vals[mDepConservative].Add(conservative)
}

// WorkerStart marks a request entering a worker; WorkerDone its exit.
func (m *Metrics) WorkerStart() { m.vals[mInFlight].Add(1) }

// WorkerDone marks a request leaving a worker.
func (m *Metrics) WorkerDone() { m.vals[mInFlight].Add(-1) }

// QueueAdd adjusts the queued-request gauge by delta (positive when a batch
// enqueues its requests, -1 as each is handed to a worker).
func (m *Metrics) QueueAdd(delta int64) { m.vals[mQueueDepth].Add(delta) }

// ObserveSim records the paper-level counters of one served result: signals
// sent and wait-stall cycles from the simulator, and the schedule's LBD/LFD
// synchronization-arc split.
func (m *Metrics) ObserveSim(signals, stalls, lbd, lfd int64) {
	m.vals[mSignals].Add(signals)
	m.vals[mStallCycles].Add(stalls)
	m.vals[mLBDArcs].Add(lbd)
	m.vals[mLFDArcs].Add(lfd)
}

// ObserveUtil folds one machine-level utilization report (the served
// schedule's traced simulation) into the aggregate machine counters. A nil
// report — an untraced batch, or a cache hit recorded without tracing — is
// a no-op.
func (m *Metrics) ObserveUtil(u *sim.Utilization) {
	if u == nil {
		return
	}
	m.vals[mCyclesIssued].Add(int64(u.IssuedCycles))
	m.vals[mCyclesSyncWait].Add(int64(u.SyncWaitCycles))
	m.vals[mCyclesWindowWait].Add(int64(u.WindowWaitCycles))
	m.vals[mCyclesDrain].Add(int64(u.DrainCycles))
	m.vals[mSlotsTotal].Add(int64(u.SlotsTotal))
	m.vals[mSlotsUsed].Add(int64(u.SlotsIssued))
	m.vals[mEmptyRAW].Add(int64(u.EmptyRAW))
	m.vals[mEmptyFUBusy].Add(int64(u.EmptyFUBusy))
	m.vals[mEmptyWidth].Add(int64(u.EmptyWidth))
	m.vals[mEmptyDrain].Add(int64(u.EmptyDrain))
}

// AttachCache points snapshots at the batch's schedule cache, whose
// occupancy and eviction count then appear as gauges in Stats.
func (m *Metrics) AttachCache(c *Cache) {
	if c != nil {
		m.cache.Store(c)
	}
}

// timed runs f, records its latency under the named stage, and counts an
// error if f reports one.
func (m *Metrics) timed(name string, f func() error) error {
	start := time.Now()
	err := f()
	m.Observe(name, time.Since(start))
	if err != nil {
		m.Error(name)
	}
	return err
}

// StageStats is a point-in-time snapshot of one stage.
type StageStats struct {
	Stage  string
	Count  int64
	Errors int64
	Total  time.Duration
	Max    time.Duration
	// Buckets[i] counts executions with latency below bucketBounds[i]
	// (the last bucket is the overflow).
	Buckets [numBuckets]int64
}

// Mean returns the average latency, 0 when nothing ran.
func (s StageStats) Mean() time.Duration {
	if s.Count == 0 {
		return 0
	}
	return s.Total / time.Duration(s.Count)
}

// bucketEdges returns the latency range bucket i covers, using max as the
// overflow bucket's upper edge. The first bucket's lower edge is a decade
// below its bound, matching the log-spaced bucket layout.
func bucketEdges(i int, max time.Duration) (lo, hi time.Duration) {
	switch {
	case i == 0:
		return bucketBounds[0] / 10, bucketBounds[0]
	case i < len(bucketBounds):
		return bucketBounds[i-1], bucketBounds[i]
	default:
		lo = bucketBounds[len(bucketBounds)-1]
		if max > lo {
			return lo, max
		}
		return lo, lo
	}
}

// Quantile estimates the q-quantile (q in [0, 1]) of the stage's latency
// distribution by log-linear interpolation inside the bucket containing the
// target rank: the buckets are decade-spaced, so latency is interpolated on
// a log scale between the bucket's edges. The overflow bucket interpolates
// up to the observed maximum. Returns 0 when the stage never ran.
func (s StageStats) Quantile(q float64) time.Duration {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum float64
	for i := 0; i < numBuckets; i++ {
		c := float64(s.Buckets[i])
		if c == 0 {
			continue
		}
		if cum+c >= rank || i == numBuckets-1 {
			lo, hi := bucketEdges(i, s.Max)
			frac := (rank - cum) / c
			if frac < 0 {
				frac = 0
			}
			if frac > 1 {
				frac = 1
			}
			if lo <= 0 || hi <= lo {
				return hi
			}
			v := math.Exp(math.Log(float64(lo)) + frac*(math.Log(float64(hi))-math.Log(float64(lo))))
			return time.Duration(v)
		}
		cum += c
	}
	return s.Max
}

// Stats is a consistent-enough snapshot of a Metrics registry (each counter
// is read atomically; the set is not a transaction, which is fine for
// monitoring).
type Stats struct {
	// Stages holds one snapshot per observed stage: compilation passes in
	// pipeline order, then schedule and simulate.
	Stages                 []StageStats
	CacheHits, CacheMisses int64
	// Panics counts recovered panics, Timeouts counts requests lost to
	// deadlines or cancellation, Fallbacks counts requests served by the
	// verified program-order fallback schedule.
	Panics, Timeouts, Fallbacks int64
	// Verified and Rejected count schedule sets the independent verifier
	// (internal/check) accepted respectively refused before serving;
	// LintFindings counts synchronization-linter findings across fresh
	// compilations.
	Verified, Rejected, LintFindings int64
	// Dependence-analysis verdicts across fresh compilations: reference pairs
	// proven exact, proven independent, and assumed conservative.
	DepExact, DepIndependent, DepConservative int64
	// InFlight and QueueDepth are point-in-time gauges: requests inside a
	// worker and requests enqueued but not yet picked up.
	InFlight, QueueDepth int64
	// CacheEntries and CacheEvictions are gauges of the attached schedule
	// cache (0 when no cache was attached; evictions stay 0 on an
	// unbounded cache).
	CacheEntries, CacheEvictions int64
	// Paper-level counters over the served results: Send_Signal issues and
	// wait-stall cycles from the simulator, and the LBD/LFD split of the
	// synchronization arcs.
	SignalsSent, WaitStallCycles int64
	LBDArcs, LFDArcs             int64
	// Machine-level utilization totals (zero unless utilization tracing
	// was enabled): processor cycles by attributed cause and issue slots
	// by static empty-slot reason, summed over served schedules.
	MachineCyclesIssued, MachineCyclesSyncWait  int64
	MachineCyclesWindowWait, MachineCyclesDrain int64
	MachineSlotsTotal, MachineSlotsUsed         int64
	MachineEmptyRAW, MachineEmptyFUBusy         int64
	MachineEmptyIssueWidth, MachineEmptyDrain   int64
}

// Stats snapshots the registry.
func (m *Metrics) Stats() Stats {
	var out Stats
	m.statsInto(&out)
	return out
}

// statsInto snapshots the registry into the zero *out. The batch pipeline
// fills its Batch.Stats in place: a local passed to the table's field
// accessors would escape to the heap on every batch.
func (m *Metrics) statsInto(out *Stats) {
	m.mu.RLock()
	if len(m.ranked) > 0 {
		out.Stages = make([]StageStats, len(m.ranked))
	}
	for i, s := range m.ranked {
		ss := &out.Stages[i]
		ss.Stage = s.name
		ss.Count = s.count.Load()
		ss.Errors = s.errs.Load()
		ss.Total = time.Duration(s.totalNS.Load())
		ss.Max = time.Duration(s.maxNS.Load())
		for b := range ss.Buckets {
			ss.Buckets[b] = s.buckets[b].Load()
		}
	}
	m.mu.RUnlock()
	for i := range metricTable {
		*metricTable[i].Field(out) = m.vals[i].Load()
	}
	if c := m.cache.Load(); c != nil {
		out.CacheEntries = int64(c.Len())
		out.CacheEvictions = c.Evictions()
	}
}

// HitRate returns the cache hit fraction in [0, 1], 0 when the cache was
// never consulted.
func (s Stats) HitRate() float64 {
	total := s.CacheHits + s.CacheMisses
	if total == 0 {
		return 0
	}
	return float64(s.CacheHits) / float64(total)
}

// Stage returns the snapshot of the named stage, or a zero snapshot.
func (s Stats) Stage(name string) StageStats {
	for _, st := range s.Stages {
		if st.Stage == name {
			return st
		}
	}
	return StageStats{}
}

// Quantile estimates the q-quantile of the named stage's latency
// distribution from its buckets (see StageStats.Quantile); 0 when the stage
// never ran.
func (s Stats) Quantile(stage string, q float64) time.Duration {
	return s.Stage(stage).Quantile(q)
}

// CompileTime sums the latency of every stage that is a compilation pass
// (everything except schedule and simulate) — the old coarse "compile"
// stage's total, derivable from the per-pass buckets.
func (s Stats) CompileTime() time.Duration {
	var total time.Duration
	for _, st := range s.Stages {
		if st.Stage == StageSchedule || st.Stage == StageVerify || st.Stage == StageSimulate {
			continue
		}
		total += st.Total
	}
	return total
}

// String renders a monitoring report.
func (s Stats) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "cache: %d hits, %d misses (%.1f%% hit rate)\n",
		s.CacheHits, s.CacheMisses, 100*s.HitRate())
	if s.CacheEntries > 0 || s.CacheEvictions > 0 {
		fmt.Fprintf(&sb, "cache: %d entries resident, %d evicted\n",
			s.CacheEntries, s.CacheEvictions)
	}
	if s.Panics+s.Timeouts+s.Fallbacks > 0 {
		fmt.Fprintf(&sb, "faults: %d panics recovered, %d timeouts, %d fallbacks\n",
			s.Panics, s.Timeouts, s.Fallbacks)
	}
	if s.Verified+s.Rejected+s.LintFindings > 0 {
		fmt.Fprintf(&sb, "verify: %d schedule sets verified, %d rejected, %d lint findings\n",
			s.Verified, s.Rejected, s.LintFindings)
	}
	if s.DepExact+s.DepIndependent+s.DepConservative > 0 {
		fmt.Fprintf(&sb, "deps: %d exact, %d independent, %d conservative\n",
			s.DepExact, s.DepIndependent, s.DepConservative)
	}
	if s.SignalsSent+s.WaitStallCycles+s.LBDArcs+s.LFDArcs > 0 {
		fmt.Fprintf(&sb, "sync: %d signals sent, %d wait-stall cycles, arcs %d LBD / %d LFD\n",
			s.SignalsSent, s.WaitStallCycles, s.LBDArcs, s.LFDArcs)
	}
	if s.MachineSlotsTotal > 0 {
		fmt.Fprintf(&sb, "machine: %d/%d issue slots used (%.1f%%), cycles %d issued / %d sync / %d window / %d drain\n",
			s.MachineSlotsUsed, s.MachineSlotsTotal,
			100*float64(s.MachineSlotsUsed)/float64(s.MachineSlotsTotal),
			s.MachineCyclesIssued, s.MachineCyclesSyncWait,
			s.MachineCyclesWindowWait, s.MachineCyclesDrain)
	}
	for _, st := range s.Stages {
		fmt.Fprintf(&sb, "%-10s %6d runs, %3d errors, mean %9v, max %9v, total %9v\n",
			st.Stage, st.Count, st.Errors, st.Mean().Round(time.Microsecond),
			st.Max.Round(time.Microsecond), st.Total.Round(time.Microsecond))
		if st.Count == 0 {
			continue
		}
		fmt.Fprintf(&sb, "           p50 %9v, p95 %9v, p99 %9v\n",
			st.Quantile(0.50).Round(time.Microsecond),
			st.Quantile(0.95).Round(time.Microsecond),
			st.Quantile(0.99).Round(time.Microsecond))
		sb.WriteString("           latency:")
		for b := 0; b < numBuckets; b++ {
			if st.Buckets[b] == 0 {
				continue
			}
			fmt.Fprintf(&sb, " %s=%d", bucketLabel(b), st.Buckets[b])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}
