// Package hotbench holds the hot-path benchmark workloads tracked by
// BENCH_hotpath.json: the 64-loop batch corpus scheduled serially and
// through the pipeline, the single-loop compile→schedule path, the
// steady-state warm-Scratch scheduling kernel, a cached-hit pipeline
// request, and a cached-hit request through the scheduld handler. The workloads take *testing.B so the same code serves both the
// `go test -bench` entry points (hotbench_test.go at the repo root) and
// the committed-snapshot emitter (`go run ./cmd/report -hotpath-json`),
// keeping the numbers in CI, in the benchmarks and in the JSON artifact
// from drifting apart.
package hotbench

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"

	"doacross"
	"doacross/internal/dlx"
	"doacross/internal/pipeline"
	"doacross/internal/server"
)

// Fig1 is the paper's Fig. 1 loop, the single-loop workload.
const Fig1 = `
DO I = 1, N
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO
`

// N is the trip count used by the single-loop workloads (the paper's).
const N = 100

// Corpus64 builds the 64-loop batch corpus: 8 distinct loop shapes swept
// over 8 trip counts — the repeated-shape workload the schedule cache is
// designed for (a trip-count sweep reschedules nothing).
func Corpus64() []pipeline.Request {
	shapes := []string{
		Fig1,
		"DO I = 1, N\nA[I] = A[I-1] + 1\nENDDO",
		"DO I = 1, N\nS1: B[I] = A[I-1] * C[I]\nS2: A[I] = B[I] + E[I]\nENDDO",
		"DO I = 1, N\nS1: A[I] = E[I] + 1\nS2: B[I] = A[I-2] * 2\nENDDO",
		"DO I = 1, N\nS = S + A[I] * B[I]\nENDDO",
		"DO I = 1, N\nS1: A[I] = A[I-3] / B[I]\nS2: C[I] = A[I] * A[I]\nENDDO",
		"DO I = 1, N\nIF (E[I] > 0) A[I] = A[I-1] + B[I]\nENDDO",
		"DO I = 1, N\nS1: B[I] = A[I-2] + E[I]\nS2: G[I] = A[I-1] * E[I+1]\nS3: A[I] = B[I] + G[I]\nENDDO",
	}
	var reqs []pipeline.Request
	for _, n := range []int{25, 50, 75, 100, 150, 200, 300, 400} {
		for si, src := range shapes {
			reqs = append(reqs, pipeline.Request{
				Name:   fmt.Sprintf("shape%d-n%d", si, n),
				Source: src,
				N:      n,
			})
		}
	}
	return reqs
}

// SerialBatch schedules the 64-loop corpus one loop at a time — the
// pre-pipeline code path: compile, schedule both ways, simulate, serially,
// no reuse.
func SerialBatch(b *testing.B) {
	reqs := Corpus64()
	m := doacross.Machine4Issue(1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range reqs {
			prog, err := doacross.Compile(r.Source)
			if err != nil {
				b.Fatal(err)
			}
			list, err := prog.ScheduleList(m)
			if err != nil {
				b.Fatal(err)
			}
			syn, err := prog.ScheduleSync(m)
			if err != nil {
				b.Fatal(err)
			}
			if doacross.Simulate(list, r.N).Total < doacross.Simulate(syn, r.N).Total {
				b.Fatal("sync schedule degraded")
			}
		}
	}
}

// PipelineBatch runs the same corpus through the batch pipeline with 8
// workers and a persistent schedule cache (the steady-state service
// shape), reporting the cache hit rate.
func PipelineBatch(b *testing.B) {
	reqs := Corpus64()
	m := doacross.Machine4Issue(1)
	cache := doacross.NewScheduleCache()
	metrics := doacross.NewBatchMetrics()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := pipeline.Run(reqs, doacross.BatchOptions{
			Workers:  8,
			Machines: []doacross.Machine{m},
			Cache:    cache,
			Metrics:  metrics,
		})
		if err != nil {
			b.Fatal(err)
		}
		if err := batch.FirstErr(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(100*metrics.Stats().HitRate(), "hit%")
}

// CompileSchedule is the single-loop compile→schedule hot path: parse,
// dependence analysis, synchronization insertion, lowering, graph build,
// then a sync schedule into a warm Scratch. This is the path the
// zero-alloc refactor targets end to end.
func CompileSchedule(b *testing.B) {
	m := doacross.Machine4Issue(1)
	sc := doacross.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		prog, err := doacross.Compile(Fig1)
		if err != nil {
			b.Fatal(err)
		}
		s, err := prog.ScheduleWith("sync", m, sc)
		if err != nil {
			b.Fatal(err)
		}
		if s.Length() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// ScheduleWarm is the steady-state scheduling kernel alone: a compiled
// program rescheduled into a warm Scratch. The schedule is borrowed from
// the scratch, so the loop body allocates nothing (pinned to 0 by
// TestScratchScheduleAllocs at the repo root).
func ScheduleWarm(b *testing.B) {
	prog := doacross.MustCompile(Fig1)
	m := doacross.Machine4Issue(1)
	sc := doacross.NewScratch()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := prog.ScheduleWith("sync", m, sc)
		if err != nil {
			b.Fatal(err)
		}
		if s.Length() == 0 {
			b.Fatal("empty schedule")
		}
	}
}

// PipelineCachedHit is a steady-state batch request whose schedule is
// already cached: one request through a warm single-worker pipeline,
// measuring the per-request overhead when every stage after compile is a
// cache hit.
func PipelineCachedHit(b *testing.B) {
	reqs := []pipeline.Request{{Name: "hot", Source: Fig1, N: N}}
	m := doacross.Machine4Issue(1)
	opt := doacross.BatchOptions{
		Workers:  1,
		Machines: []doacross.Machine{m},
		Cache:    doacross.NewScheduleCache(),
	}
	if _, err := pipeline.Run(reqs, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch, err := pipeline.Run(reqs, opt)
		if err != nil {
			b.Fatal(err)
		}
		if err := batch.FirstErr(); err != nil {
			b.Fatal(err)
		}
	}
}

// HitServer builds an in-memory scheduld serving the paper's four machines
// at N, warms it with one Fig. 1 request, and returns a function that
// serves one more identical POST /v1/schedule through the daemon's handler
// (no network). serve fails unless the answer is a 200 whose every machine
// was a cache hit, so the measured path is exactly the warm hit path:
// request decoding, admission, coalescing, the pipeline hit path with its
// per-flight span recorder and timing audit, response encoding and the
// flight record.
func HitServer() (serve func() error, err error) {
	srv, err := server.New(server.Config{
		Pipeline: pipeline.Options{Workers: 1, Machines: dlx.PaperConfigs(), N: N},
	})
	if err != nil {
		return nil, err
	}
	h := srv.Handler()
	body, err := json.Marshal(server.ScheduleRequest{Name: "fig1", Source: Fig1, N: N})
	if err != nil {
		return nil, err
	}
	// The request and the response writer are reused, so what serve
	// allocates is the daemon's own work.
	w := &responseWriter{header: http.Header{}}
	rd := bytes.NewReader(body)
	req := httptest.NewRequest(http.MethodPost, "/v1/schedule", rd)
	req.Header.Set("X-Request-Id", "hot")
	var resp server.ScheduleResponse
	serve = func() error {
		rd.Reset(body)
		w.reset()
		h.ServeHTTP(w, req)
		if w.code != http.StatusOK {
			return fmt.Errorf("hotbench: status %d: %s", w.code, w.body.Bytes())
		}
		return nil
	}
	if err := serve(); err != nil {
		return nil, err
	}
	// The warm-up request compiled and scheduled; from here on every
	// machine must be served from cache.
	if err := serve(); err != nil {
		return nil, err
	}
	if err := json.Unmarshal(w.body.Bytes(), &resp); err != nil {
		return nil, err
	}
	for _, m := range resp.Machines {
		if !m.CacheHit {
			return nil, fmt.Errorf("hotbench: warm request missed the cache on %s", m.Machine)
		}
	}
	return serve, nil
}

// responseWriter is a reusable http.ResponseWriter that keeps the status
// and the body of the last answer.
type responseWriter struct {
	header http.Header
	code   int
	body   bytes.Buffer
}

func (w *responseWriter) Header() http.Header { return w.header }

func (w *responseWriter) WriteHeader(code int) {
	if w.code == 0 {
		w.code = code
	}
}

func (w *responseWriter) Write(p []byte) (int, error) {
	w.WriteHeader(http.StatusOK)
	return w.body.Write(p)
}

func (w *responseWriter) reset() {
	clear(w.header)
	w.code = 0
	w.body.Reset()
}

// ServeHit is a warm scheduld request served through the daemon's handler:
// one Fig. 1 POST /v1/schedule on the paper's four machines, every stage a
// cache hit. It names the handler layer's own time and allocations, above
// PipelineCachedHit's pipeline-only cost.
func ServeHit(b *testing.B) {
	serve, err := HitServer()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := serve(); err != nil {
			b.Fatal(err)
		}
	}
}

// SimUntraced is the recurrence simulator alone on the Fig. 1 sync
// schedule with no tracer attached — the pipeline's hot simulate path.
// TestSimNilTracerAllocs at the repo root pins its steady-state allocation
// count so the opt-in tracer hook stays free when unused.
func SimUntraced(b *testing.B) {
	s := simSchedule(b)
	opt := doacross.SimOptions{Lo: 1, Hi: N}
	if _, err := doacross.SimulateOptions(s, opt); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm, err := doacross.SimulateOptions(s, opt)
		if err != nil {
			b.Fatal(err)
		}
		if tm.Total == 0 {
			b.Fatal("zero makespan")
		}
	}
}

// SimTraced is the same simulation with the cycle-accurate tracer attached
// and its attribution books verified every iteration — the cost of -why,
// -machine-obs and the utilization audit, measured against SimUntraced.
func SimTraced(b *testing.B) {
	s := simSchedule(b)
	tr := &doacross.SimTracer{}
	opt := doacross.SimOptions{Lo: 1, Hi: N, Tracer: tr}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := doacross.SimulateTraced(s, opt); err != nil {
			b.Fatal(err)
		}
	}
}

func simSchedule(b *testing.B) *doacross.Schedule {
	b.Helper()
	prog := doacross.MustCompile(Fig1)
	s, err := prog.ScheduleSync(doacross.Machine4Issue(1))
	if err != nil {
		b.Fatal(err)
	}
	return s
}

// Row is one benchmark's snapshot: the current measurement next to the
// recorded seed (pre-refactor) numbers, when the workload existed then.
type Row struct {
	// Bench is the workload name (matches the Benchmark* entry points).
	Bench string `json:"bench"`
	// NsOp, BytesOp, AllocsOp are the current measurement.
	NsOp     int64 `json:"ns_op"`
	BytesOp  int64 `json:"bytes_op"`
	AllocsOp int64 `json:"allocs_op"`
	// SeedNsOp/SeedAllocsOp are the recorded pre-refactor baseline (zero
	// when the workload was introduced with the refactor and has no seed
	// measurement).
	SeedNsOp     int64 `json:"seed_ns_op,omitempty"`
	SeedAllocsOp int64 `json:"seed_allocs_op,omitempty"`
	// SpeedupVsSeed is SeedNsOp/NsOp; AllocRatioVsSeed is
	// SeedAllocsOp/AllocsOp (omitted when AllocsOp is 0 — the ratio would
	// be infinite — or when there is no seed).
	SpeedupVsSeed    float64 `json:"speedup_vs_seed,omitempty"`
	AllocRatioVsSeed float64 `json:"alloc_ratio_vs_seed,omitempty"`
}

// Report is the BENCH_hotpath.json document: run parameters plus one row
// per tracked workload, mirroring the BENCH_exact_gap.json shape.
type Report struct {
	// N is the single-loop trip count; CorpusLoops the batch corpus size.
	N           int `json:"n"`
	CorpusLoops int `json:"corpus_loops"`
	// GoMaxProcs records the parallelism the pipeline rows ran under.
	GoMaxProcs int    `json:"gomaxprocs"`
	Note       string `json:"note"`
	Rows       []Row  `json:"rows"`
}

// seed is the pre-refactor baseline, measured at the commit before the
// arena/bitset/struct-of-arrays refactor landed (ScheduleWarm's seed is
// the then-current per-call ScheduleSync, the only steady-state kernel
// that existed). These are recorded numbers: regenerating them requires
// checking out that commit, so they are carried here verbatim.
var seed = map[string]struct{ ns, allocs int64 }{
	"BenchmarkBatch64/serial":      {8_495_044, 35_428},
	"BenchmarkBatch64/pipeline-j8": {1_092_219, 4_208},
	"BenchmarkHotCompileSchedule":  {65_693, 623},
	"BenchmarkHotScheduleWarm":     {31_739, 327},
}

// workloads pairs each tracked benchmark name with its workload.
var workloads = []struct {
	name string
	fn   func(*testing.B)
}{
	{"BenchmarkBatch64/serial", SerialBatch},
	{"BenchmarkBatch64/pipeline-j8", PipelineBatch},
	{"BenchmarkHotCompileSchedule", CompileSchedule},
	{"BenchmarkHotScheduleWarm", ScheduleWarm},
	{"BenchmarkHotPipelineCachedHit", PipelineCachedHit},
	{"BenchmarkHotServeHit", ServeHit},
	{"BenchmarkHotSim/untraced", SimUntraced},
	{"BenchmarkHotSim/traced", SimTraced},
}

// Run measures every tracked workload with testing.Benchmark and returns
// the snapshot report.
func Run() Report {
	r := Report{
		N:           N,
		CorpusLoops: len(Corpus64()),
		GoMaxProcs:  runtime.GOMAXPROCS(0),
		Note: "hot-path benchmark trajectory: current measurement vs the recorded " +
			"pre-refactor seed; regenerate with `go run ./cmd/report -hotpath-json BENCH_hotpath.json -hotpath-only`",
	}
	for _, w := range workloads {
		res := testing.Benchmark(w.fn)
		row := Row{
			Bench:    w.name,
			NsOp:     res.NsPerOp(),
			BytesOp:  res.AllocedBytesPerOp(),
			AllocsOp: res.AllocsPerOp(),
		}
		if s, ok := seed[w.name]; ok {
			row.SeedNsOp, row.SeedAllocsOp = s.ns, s.allocs
			if row.NsOp > 0 {
				row.SpeedupVsSeed = round2(float64(s.ns) / float64(row.NsOp))
			}
			if row.AllocsOp > 0 {
				row.AllocRatioVsSeed = round2(float64(s.allocs) / float64(row.AllocsOp))
			}
		}
		r.Rows = append(r.Rows, row)
	}
	return r
}

func round2(x float64) float64 { return float64(int64(x*100+0.5)) / 100 }

// JSON renders the report as the committed BENCH_hotpath.json document.
func (r Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}
