package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

const fig1Source = `
DO I = 1, N
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO
`

const chainSource = "DO I = 1, N\nA[I] = A[I-1] + 1\nENDDO"

type built struct {
	loop *lang.Loop
	prog *tac.Program
	g    *dfg.Graph
}

func build(t testing.TB, src string) built {
	t.Helper()
	loop := lang.MustParse(src)
	a := dep.Analyze(loop)
	p := tac.MustGenerate(syncop.Insert(a, syncop.Options{}))
	g, err := dfg.Build(p, a)
	if err != nil {
		t.Fatal(err)
	}
	return built{loop: loop, prog: p, g: g}
}

func mustList(t testing.TB, b built, cfg dlx.Config) *core.Schedule {
	t.Helper()
	s, err := core.List(b.g, cfg, core.ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func mustSync(t testing.TB, b built, cfg dlx.Config) *core.Schedule {
	t.Helper()
	s, err := core.Sync(b.g, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestChainListTotal pins the analytic model on the simplest recurrence:
// A[I] = A[I-1]+1 at 2-issue/uniform latency list-schedules to 7 rows with
// the wait in row 0 and the send in row 6, so iteration i+1 starts 7 cycles
// after iteration i: total = 7n.
func TestChainListTotal(t *testing.T) {
	b := build(t, chainSource)
	s := mustList(t, b, dlx.Uniform(2, 1))
	if s.Length() != 7 {
		t.Fatalf("list schedule length = %d, want 7:\n%s", s.Length(), s.Listing())
	}
	for _, n := range []int{1, 2, 10, 100} {
		tm, err := Time(s, Options{Lo: 1, Hi: n})
		if err != nil {
			t.Fatal(err)
		}
		if tm.Total != 7*n {
			t.Errorf("n=%d: total = %d, want %d", n, tm.Total, 7*n)
		}
	}
}

// TestChainSyncTotal pins the improved recurrence: the sync scheduler delays
// the wait behind the address computation, shrinking the wait→send span to 4
// rows: total = 5n + 2.
func TestChainSyncTotal(t *testing.T) {
	b := build(t, chainSource)
	s := mustSync(t, b, dlx.Uniform(2, 1))
	for _, n := range []int{1, 2, 10, 100} {
		tm, err := Time(s, Options{Lo: 1, Hi: n})
		if err != nil {
			t.Fatal(err)
		}
		want := 5*n + 2
		if tm.Total != want {
			t.Errorf("n=%d: total = %d, want %d\n%s", n, tm.Total, want, s.Listing())
		}
	}
}

func TestFig1Improvement(t *testing.T) {
	b := build(t, fig1Source)
	cfg := dlx.Uniform(4, 1)
	list := mustList(t, b, cfg)
	syn := mustSync(t, b, cfg)
	n := 100
	lt := MustTime(list, Options{Lo: 1, Hi: n})
	st := MustTime(syn, Options{Lo: 1, Hi: n})
	if st.Total >= lt.Total {
		t.Fatalf("sync %d >= list %d at n=%d", st.Total, lt.Total, n)
	}
	improvement := 1 - float64(st.Total)/float64(lt.Total)
	// The paper's Fig. 4 example improves by roughly a factor (12·N vs
	// (N/2)·7); at n=100 that's >60 %.
	if improvement < 0.5 {
		t.Errorf("improvement = %.1f%%, want > 50%%", 100*improvement)
	}
}

func TestTimeZeroTrip(t *testing.T) {
	b := build(t, fig1Source)
	s := mustList(t, b, dlx.Standard(2, 1))
	tm, err := Time(s, Options{Lo: 5, Hi: 4})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Total != 0 || tm.StallCycles != 0 {
		t.Errorf("zero-trip timing = %+v", tm)
	}
}

func TestTimeSingleIterationNoStall(t *testing.T) {
	b := build(t, fig1Source)
	s := mustList(t, b, dlx.Standard(4, 2))
	tm := MustTime(s, Options{Lo: 1, Hi: 1})
	if tm.StallCycles != 0 {
		t.Errorf("single iteration stalled %d cycles (no one to wait for)", tm.StallCycles)
	}
	if tm.Total != s.CompletionLength() {
		t.Errorf("total = %d, want completion length %d", tm.Total, s.CompletionLength())
	}
}

func TestRunMatchesSequentialFig1(t *testing.T) {
	b := build(t, fig1Source)
	for _, cfg := range dlx.PaperConfigs() {
		for _, s := range []*core.Schedule{mustList(t, b, cfg), mustSync(t, b, cfg)} {
			n := 12
			ref := b.loop.SeedStore(n, 8, 5)
			got := ref.Clone()
			if err := b.loop.Run(ref); err != nil {
				t.Fatal(err)
			}
			if _, err := Run(s, got, Options{Lo: 1, Hi: n}); err != nil {
				t.Fatalf("%s/%s: %v", cfg.Name, s.Method, err)
			}
			if d := ref.Diff(got); d != "" {
				t.Errorf("%s/%s: parallel result wrong: %s", cfg.Name, s.Method, d)
			}
		}
	}
}

// TestRunTimingMatchesTime: Run's timing, which is Time's, matches the
// reference machine's.
func TestRunTimingMatchesTime(t *testing.T) {
	for _, src := range []string{fig1Source, chainSource, "DO I = 1, N\nS = S + A[I]\nENDDO"} {
		b := build(t, src)
		for _, cfg := range []dlx.Config{dlx.Standard(2, 1), dlx.Standard(4, 2), dlx.Uniform(4, 1)} {
			for _, s := range []*core.Schedule{mustList(t, b, cfg), mustSync(t, b, cfg)} {
				for _, opt := range []Options{{Lo: 1, Hi: 9}, {Lo: 1, Hi: 9, Procs: 3}, {Lo: 2, Hi: 7, Procs: 2}} {
					want := checkOracle(t, s, opt)
					st := b.loop.SeedStore(12, 10, 3)
					got, err := Run(s, st, opt)
					if err != nil {
						t.Fatal(err)
					}
					if got.Total != want.Total {
						t.Errorf("%s/%s %+v: Run total %d != oracle %d",
							cfg.Name, s.Method, opt, got.Total, want.Total)
					}
					if got.StallCycles != want.StallCycles {
						t.Errorf("%s/%s %+v: Run stalls %d != oracle %d",
							cfg.Name, s.Method, opt, got.StallCycles, want.StallCycles)
					}
				}
			}
		}
	}
}

func TestFewerProcessorsSlowerButCorrect(t *testing.T) {
	b := build(t, fig1Source)
	s := mustSync(t, b, dlx.Standard(4, 1))
	n := 16
	full := MustTime(s, Options{Lo: 1, Hi: n})
	quarter := MustTime(s, Options{Lo: 1, Hi: n, Procs: 4})
	if quarter.Total < full.Total {
		t.Errorf("4 procs (%d) faster than %d procs (%d)", quarter.Total, n, full.Total)
	}
	one := MustTime(s, Options{Lo: 1, Hi: n, Procs: 1})
	if one.Total < quarter.Total {
		t.Errorf("1 proc (%d) faster than 4 procs (%d)", one.Total, quarter.Total)
	}
	// Single processor executes iterations back to back: no benefit, and the
	// result must still be right.
	ref := b.loop.SeedStore(n, 8, 17)
	got := ref.Clone()
	if err := b.loop.Run(ref); err != nil {
		t.Fatal(err)
	}
	if _, err := Run(s, got, Options{Lo: 1, Hi: n, Procs: 1}); err != nil {
		t.Fatal(err)
	}
	if d := ref.Diff(got); d != "" {
		t.Errorf("1-proc result wrong: %s", d)
	}
}

func TestReductionSerializes(t *testing.T) {
	// S = S + A[I] has a distance-1 LBD through the whole statement; the
	// parallel time must grow linearly with a slope of several cycles.
	b := build(t, "DO I = 1, N\nS = S + A[I]\nENDDO")
	s := mustSync(t, b, dlx.Standard(2, 1))
	t10 := MustTime(s, Options{Lo: 1, Hi: 10}).Total
	t20 := MustTime(s, Options{Lo: 1, Hi: 20}).Total
	slope := float64(t20-t10) / 10
	if slope < 2 {
		t.Errorf("reduction slope = %.1f cycles/iter, expected serialization (>= 2)", slope)
	}
}

func TestDoallFlatTime(t *testing.T) {
	// Without carried deps the parallel time is independent of n (given n
	// processors).
	b := build(t, "DO I = 1, N\nA[I] = E[I] * 2 + F[I]\nENDDO")
	s := mustList(t, b, dlx.Standard(2, 1))
	t5 := MustTime(s, Options{Lo: 1, Hi: 5}).Total
	t500 := MustTime(s, Options{Lo: 1, Hi: 500}).Total
	if t5 != t500 {
		t.Errorf("DOALL time varies with n: %d vs %d", t5, t500)
	}
	if t5 != s.CompletionLength() {
		t.Errorf("DOALL time %d != completion length %d", t5, s.CompletionLength())
	}
}

func TestQuickParallelMatchesSequential(t *testing.T) {
	arrays := []string{"A", "B", "C", "D"}
	cfg := &quick.Config{MaxCount: 60}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		loop := &lang.Loop{Var: "I", Lo: &lang.Const{Value: 1}, Hi: &lang.Scalar{Name: "N"}}
		nst := 1 + r.Intn(4)
		ref := func() lang.Expr {
			off := r.Intn(7) - 4
			return &lang.ArrayRef{Name: arrays[r.Intn(len(arrays))],
				Index: &lang.Binary{Op: lang.OpAdd, L: &lang.Scalar{Name: "I"}, R: &lang.Const{Value: float64(off)}}}
		}
		for k := 0; k < nst; k++ {
			st := &lang.Assign{
				Label: "S" + string(rune('1'+k)),
				LHS:   &lang.ArrayRef{Name: arrays[r.Intn(len(arrays))], Index: &lang.Binary{Op: lang.OpAdd, L: &lang.Scalar{Name: "I"}, R: &lang.Const{Value: float64(r.Intn(3))}}},
				RHS:   &lang.Binary{Op: lang.BinOp(r.Intn(3)), L: ref(), R: ref()},
			}
			if r.Intn(4) == 0 {
				st.Cond = &lang.Cond{Op: lang.RelOp(r.Intn(6)), L: ref(), R: &lang.Const{Value: float64(r.Intn(5) - 2)}}
			}
			loop.Body = append(loop.Body, st)
		}
		a := dep.Analyze(loop)
		p, err := tac.Generate(syncop.Insert(a, syncop.Options{}))
		if err != nil {
			return false
		}
		g, err := dfg.Build(p, a)
		if err != nil {
			return false
		}
		machine := dlx.PaperConfigs()[r.Intn(4)]
		var s *core.Schedule
		if r.Intn(2) == 0 {
			s, err = core.List(g, machine, core.ProgramOrder)
		} else {
			s, err = core.Sync(g, machine)
		}
		if err != nil {
			return false
		}
		n := 8
		refSt := loop.SeedStore(n, 12, uint64(seed))
		gotSt := refSt.Clone()
		if err := loop.Run(refSt); err != nil {
			return true
		}
		procs := []int{0, 1, 3}[r.Intn(3)]
		if _, err := Run(s, gotSt, Options{Lo: 1, Hi: n, Procs: procs}); err != nil {
			t.Logf("seed %d: %v", seed, err)
			return false
		}
		if d := refSt.Diff(gotSt); d != "" {
			t.Logf("seed %d (%s, procs=%d): %s\n%s", seed, s.Method, procs, d, loop)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

// TestUnsynchronizedScheduleCorrupts demonstrates the differential tests
// have teeth: running WITHOUT synchronization stalls (waits stripped) on a
// recurrence loop produces wrong results, because each iteration reads
// A[I-1] before its producer ran.
func TestUnsynchronizedScheduleCorrupts(t *testing.T) {
	b := build(t, chainSource)
	s := mustList(t, b, dlx.Uniform(2, 1))
	n := 10
	ref := b.loop.SeedStore(n, 4, 1)
	got := ref.Clone()
	if err := b.loop.Run(ref); err != nil {
		t.Fatal(err)
	}
	// Strip the wait's signal gating by lying about distances: a distance
	// beyond the trip count never waits.
	hacked := *s
	// Deep-copy instructions so the shared program is untouched.
	prog := *s.Prog
	instrs := make([]*tac.Instr, len(prog.Instrs))
	for i, in := range prog.Instrs {
		cp := *in
		if cp.Op == tac.Wait {
			cp.SigDist = 1000
		}
		instrs[i] = &cp
	}
	prog.Instrs = instrs
	hacked.Prog = &prog
	if _, err := Run(&hacked, got, Options{Lo: 1, Hi: n}); err != nil {
		t.Fatal(err)
	}
	if d := ref.Diff(got); d == "" {
		t.Error("unsynchronized run produced the sequential result; differential test has no power")
	}
}

// TestMaxCyclesBudget: Options.MaxCycles caps the simulation explicitly, in
// Time and so in Run. A budget too small for the run fails with an
// exhaustion error naming the blocked iteration set; a generous budget
// changes nothing.
func TestMaxCyclesBudget(t *testing.T) {
	b := build(t, chainSource)
	s := mustList(t, b, dlx.Uniform(2, 1))
	n := 100
	_, err := Run(s, b.loop.SeedStore(n+2, 8, 5), Options{Lo: 1, Hi: n, MaxCycles: 50})
	if err == nil {
		t.Fatal("a 700-cycle run fit a 50-cycle budget")
	}
	for _, want := range []string{"cycle budget 50 exhausted", "blocked iterations"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("budget error %q missing %q", err, want)
		}
	}
	tm, err := Run(s, b.loop.SeedStore(n+2, 8, 5), Options{Lo: 1, Hi: n, MaxCycles: 100000})
	if err != nil {
		t.Fatal(err)
	}
	if tm.Total != 700 {
		t.Errorf("budgeted run total = %d, want 700", tm.Total)
	}
	// No budget (MaxCycles 0) runs a correct schedule to completion.
	if _, err := Run(s, b.loop.SeedStore(n+2, 8, 5), Options{Lo: 1, Hi: n}); err != nil {
		t.Errorf("derived bound rejected a correct schedule: %v", err)
	}
	// Time enforces the same budget: the run issues its last row at cycle
	// 699, so a budget of 699 fits and 698 does not, with iteration 100
	// blocked. The blocked set lists one iteration per processor.
	if tm, err := Time(s, Options{Lo: 1, Hi: n, MaxCycles: 699}); err != nil || tm.Total != 700 {
		t.Errorf("Time with a fitting budget: total %d, %v", tm.Total, err)
	}
	_, err = Time(s, Options{Lo: 1, Hi: n, MaxCycles: 698})
	if err == nil || !strings.Contains(err.Error(), "cycle budget 698 exhausted (1 iterations unfinished; blocked iterations [100])") {
		t.Errorf("Time budget error = %v", err)
	}
	_, err = Time(s, Options{Lo: 1, Hi: n, MaxCycles: 50, Procs: 4})
	if err == nil || !strings.Contains(err.Error(), "blocked iterations [8 9 10 11]") {
		t.Errorf("Time budget error with 4 processors = %v", err)
	}
}
