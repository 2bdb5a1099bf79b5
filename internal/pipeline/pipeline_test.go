package pipeline

import (
	"fmt"
	"strings"
	"testing"

	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/lang"
)

const fig1 = `DO I = 1, N
S1: B[I] = A[I-2] + E[I+1]
S2: G[I-3] = A[I-1] * E[I+2]
S3: A[I] = B[I] + C[I+3]
ENDDO`

// corpus returns count loop sources cycling over distinct shapes; shape
// parameters are varied so different indices produce different graphs.
func corpus(count int) []string {
	shapes := []func(i int) string{
		func(i int) string {
			return fmt.Sprintf("DO I = 1, N\nA[I] = A[I-%d] + %d\nENDDO", i%3+1, i)
		},
		func(i int) string {
			return fmt.Sprintf("DO I = 1, N\nS1: B[I] = A[I-1] * C[I+%d]\nS2: A[I] = B[I] + E[I]\nENDDO", i%4)
		},
		func(i int) string { return fig1 },
		func(i int) string {
			return fmt.Sprintf("DO I = 1, N\nS = S + A[I] * %d\nENDDO", i%5)
		},
	}
	out := make([]string, count)
	for i := range out {
		out[i] = shapes[i%len(shapes)](i / len(shapes))
	}
	return out
}

func run(t *testing.T, srcs []string, opt Options) *Batch {
	t.Helper()
	reqs := make([]Request, len(srcs))
	for i, s := range srcs {
		reqs[i] = Request{Source: s}
	}
	b, err := Run(reqs, opt)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestRunBasics(t *testing.T) {
	b := run(t, []string{fig1}, Options{})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	lr := b.Loops[0]
	if lr.N != 100 {
		t.Errorf("default N = %d, want 100", lr.N)
	}
	if len(lr.Machines) != 1 {
		t.Fatalf("machines = %d, want 1", len(lr.Machines))
	}
	mr := lr.Machines[0]
	if mr.List == nil || mr.Sync == nil {
		t.Fatal("missing schedules")
	}
	if err := mr.List.Validate(); err != nil {
		t.Error(err)
	}
	if err := mr.Sync.Validate(); err != nil {
		t.Error(err)
	}
	if mr.SyncTime > mr.ListTime {
		t.Errorf("sync %d slower than list %d on the paper's loop", mr.SyncTime, mr.ListTime)
	}
	if lr.DoacrossSource() == "" || lr.Listing() == "" || lr.GraphInfo() == "" {
		t.Error("empty render helpers")
	}
	// Stats must show the stage work.
	for _, st := range b.Stats.Stages {
		if st.Count == 0 {
			t.Errorf("stage %s never ran", st.Stage)
		}
	}
}

// TestRunBest: the "best" backend serves the never-degrades pick in the
// Sync slot, through the pipeline's verifier, never slower than the list
// baseline or the paper's heuristic.
func TestRunBest(t *testing.T) {
	srcs := corpus(8)
	opt := Options{Machines: dlx.PaperConfigs()}
	sync := run(t, srcs, opt)
	opt.Compile.Backend = "best"
	best := run(t, srcs, opt)
	for _, b := range []*Batch{sync, best} {
		if err := b.FirstErr(); err != nil {
			t.Fatal(err)
		}
	}
	for i, lr := range best.Loops {
		for k, mr := range lr.Machines {
			if mr.Backend != "best" || mr.Degraded {
				t.Fatalf("%s %s: backend %q, degraded %v", lr.Name, mr.Machine, mr.Backend, mr.Degraded)
			}
			if st := sync.Loops[i].Machines[k].SyncTime; mr.SyncTime > mr.ListTime || mr.SyncTime > st {
				t.Errorf("%s %s: best %d worse than list %d or sync %d",
					lr.Name, mr.Machine, mr.SyncTime, mr.ListTime, st)
			}
		}
	}
	if sets := int64(len(srcs) * len(opt.Machines)); best.Stats.Verified != sets {
		t.Errorf("verified %d best schedule sets, want %d", best.Stats.Verified, sets)
	}
}

// numeric projects the worker-independent portion of a batch result (cache
// hit flags may legitimately differ between runs).
func numeric(b *Batch) string {
	var sb strings.Builder
	for _, lr := range b.Loops {
		fmt.Fprintf(&sb, "%d %s err=%v n=%d", lr.Index, lr.Name, lr.Err, lr.N)
		for _, mr := range lr.Machines {
			fmt.Fprintf(&sb, " [%s key=%s list=%d/%d/%d sync=%d/%d/%d imp=%.4f]",
				mr.Machine, mr.Key, mr.ListTime, mr.ListStalls, mr.ListLBD,
				mr.SyncTime, mr.SyncStalls, mr.SyncLBD, mr.Improvement)
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// TestWorkersDeterminism is the satellite concurrency contract: the same
// batch run with -j 1 and -j 8 yields identical results, with and without a
// shared cache (run under -race in CI).
func TestWorkersDeterminism(t *testing.T) {
	srcs := corpus(32)
	for _, cached := range []bool{false, true} {
		var want string
		for _, workers := range []int{1, 8} {
			opt := Options{Workers: workers, Machines: dlx.PaperConfigs()}
			if cached {
				opt.Cache = NewCache()
			}
			b := run(t, srcs, opt)
			if err := b.FirstErr(); err != nil {
				t.Fatal(err)
			}
			got := numeric(b)
			if want == "" {
				want = got
			} else if got != want {
				t.Errorf("cached=%v: -j %d diverges from -j 1:\n%s\nvs\n%s", cached, workers, got, want)
			}
		}
	}
}

func TestCacheHitsOnRepeatedShapes(t *testing.T) {
	// The same loop under two names: the second must hit all three memo
	// levels (compile, schedule, timing).
	cache := NewCache()
	b := run(t, []string{fig1, fig1}, Options{Cache: cache})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if b.Stats.CacheHits != 3 || b.Stats.CacheMisses != 3 {
		t.Errorf("hits/misses = %d/%d, want 3/3", b.Stats.CacheHits, b.Stats.CacheMisses)
	}
	if b.Loops[0].Machines[0].Key != b.Loops[1].Machines[0].Key {
		t.Error("identical loops produced different cache keys")
	}
	if !b.Loops[1].Machines[0].CacheHit {
		t.Error("second loop not marked as a cache hit")
	}
	// A second batch over the same cache hits everything: no stage reruns.
	b2 := run(t, []string{fig1, fig1}, Options{Cache: cache})
	if b2.Stats.CacheHits != 6 || b2.Stats.CacheMisses != 0 {
		t.Errorf("second batch hits/misses = %d/%d, want 6/0", b2.Stats.CacheHits, b2.Stats.CacheMisses)
	}
	for _, st := range b2.Stats.Stages {
		if st.Count != 0 {
			t.Errorf("second batch ran %s %d times, want 0", st.Stage, st.Count)
		}
	}
}

func TestCacheKeySensitivity(t *testing.T) {
	// Different trip counts share schedules but not timings.
	cache := NewCache()
	reqs := []Request{{Source: fig1, N: 10}, {Source: fig1, N: 1000}}
	b, err := Run(reqs, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	// Loop 1 shares the compilation and the schedules but not the timing.
	if b.Stats.CacheHits != 2 {
		t.Errorf("hits = %d, want 2 (compile + schedule shared across N)", b.Stats.CacheHits)
	}
	if n := b.Stats.Stage("schedule").Count; n != 1 {
		t.Errorf("schedule ran %d times, want 1", n)
	}
	if n := b.Stats.Stage("simulate").Count; n != 2 {
		t.Errorf("simulate ran %d times, want 2 (timing keys on N)", n)
	}
	if b.Loops[0].Machines[0].ListTime == b.Loops[1].Machines[0].ListTime {
		t.Error("different trip counts simulated to the same time; timing memo over-shared")
	}
	// Different scheduler options must not share schedules (the compile
	// memo may still hit).
	b2 := run(t, []string{fig1}, Options{Cache: cache, Baseline: 1})
	if n := b2.Stats.Stage("schedule").Count; n != 1 {
		t.Errorf("different baseline reused schedules (schedule ran %d times, want 1)", n)
	}
}

func TestPerLoopErrors(t *testing.T) {
	b := run(t, []string{fig1, "DO I = ,\n"}, Options{})
	if b.Loops[0].Err != nil {
		t.Errorf("good loop failed: %v", b.Loops[0].Err)
	}
	if b.Loops[1].Err == nil {
		t.Error("bad loop succeeded")
	}
	if b.FirstErr() == nil {
		t.Error("FirstErr missed the failure")
	}
	if b.Stats.Stage("parse").Errors != 1 {
		t.Errorf("parse errors = %d, want 1", b.Stats.Stage("parse").Errors)
	}
	if _, err := Run([]Request{{}}, Options{}); err != nil {
		t.Errorf("empty request must fail per-loop, not batch-wide: %v", err)
	}
	if b := run(t, nil, Options{}); len(b.Loops) != 0 {
		t.Error("empty batch produced loops")
	}
}

// TestRequestValidation: malformed requests are rejected up front with a
// structured, positioned diagnostic instead of dying in the parser or the
// simulator.
func TestRequestValidation(t *testing.T) {
	loop := lang.MustParse(fig1)
	b, err := Run([]Request{
		{},                                   // neither Source nor Loop
		{Name: "neg", Source: fig1, N: -5},   // negative trip count
		{Name: "negloop", Loop: loop, N: -1}, // negative trip count, positioned
		{Name: "ok", Source: fig1},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i, wantMsg := range []string{"neither Source nor Loop", "negative trip count", "negative trip count"} {
		lr := b.Loops[i]
		if lr.Err == nil {
			t.Fatalf("request %d accepted", i)
		}
		d, ok := diag.As(lr.Err)
		if !ok {
			t.Fatalf("request %d error is not a diagnostic: %v", i, lr.Err)
		}
		if d.Stage != "pipeline" {
			t.Errorf("request %d diagnostic stage = %q, want pipeline", i, d.Stage)
		}
		if !strings.Contains(d.Msg, wantMsg) {
			t.Errorf("request %d diagnostic = %q, want mention of %q", i, d.Msg, wantMsg)
		}
	}
	if d, _ := diag.As(b.Loops[2].Err); !d.Pos.IsValid() {
		t.Error("parsed-loop validation diagnostic lost the source position")
	}
	if b.Loops[3].Err != nil {
		t.Errorf("valid request rejected: %v", b.Loops[3].Err)
	}
}

func TestRequestLoopAndNOverride(t *testing.T) {
	loop := lang.MustParse(fig1)
	b, err := Run([]Request{{Name: "parsed", Loop: loop, N: 7}}, Options{N: 50})
	if err != nil {
		t.Fatal(err)
	}
	lr := b.Loops[0]
	if lr.Err != nil {
		t.Fatal(lr.Err)
	}
	if lr.N != 7 {
		t.Errorf("N override = %d, want 7", lr.N)
	}
	if lr.Name != "parsed" {
		t.Errorf("name = %q", lr.Name)
	}
	if lr.Loop != loop {
		t.Error("parsed loop not used directly")
	}
}

func TestStatsString(t *testing.T) {
	b := run(t, []string{fig1, fig1}, Options{Cache: NewCache()})
	s := b.Stats.String()
	for _, want := range []string{"cache:", "hit rate", "parse", "analyze", "syncinsert", "codegen", "graph", "schedule", "simulate", "latency:"} {
		if !strings.Contains(s, want) {
			t.Errorf("stats report missing %q:\n%s", want, s)
		}
	}
	if b.Stats.HitRate() != 0.5 {
		t.Errorf("hit rate = %v, want 0.5", b.Stats.HitRate())
	}
}

func TestInvalidMachine(t *testing.T) {
	bad := dlx.Config{Issue: 0}
	if _, err := Run([]Request{{Source: fig1}}, Options{Machines: []dlx.Config{bad}}); err == nil {
		t.Error("invalid machine accepted")
	}
}

// TestConcurrentRepeatsComputeOnce: in a parallel cached batch, repeats of
// a loop wait for its first occurrence and are served from the cache, and
// requests that only share stages with it (the same loop at another trip
// count) share those stages — every stage runs once per distinct problem,
// as in a serial run.
func TestConcurrentRepeatsComputeOnce(t *testing.T) {
	other := "DO I = 1, N\nA[I] = A[I-1] + 1\nENDDO"
	reqs := []Request{
		{Source: fig1}, {Source: fig1}, {Source: other}, {Source: fig1},
		{Source: fig1, N: 37}, {Source: other}, {Source: fig1, N: 37}, {Source: fig1},
	}
	b, err := Run(reqs, Options{Workers: 8, Machines: dlx.PaperConfigs(), Cache: NewCache()})
	if err != nil {
		t.Fatal(err)
	}
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	m := len(dlx.PaperConfigs())
	for stage, want := range map[string]int64{"parse": 2, "schedule": int64(2 * m), "simulate": int64(3 * m)} {
		if got := b.Stats.Stage(stage).Count; got != want {
			t.Errorf("%s ran %d times, want %d", stage, got, want)
		}
	}
	for _, i := range []int{1, 3, 5, 6, 7} {
		for _, mr := range b.Loops[i].Machines {
			if !mr.CacheHit {
				t.Errorf("repeat %d on %s not served from the cache", i, mr.Machine)
			}
		}
	}
}
