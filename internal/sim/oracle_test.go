package sim

import (
	"fmt"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/perfect"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// oracleIter is one iteration as the reference machine ran it.
type oracleIter struct {
	proc, start, done int
	// rows[r] is the cycle schedule row r issued.
	rows []int
}

// oracleRun is the reference the timing model is tested against: a naive
// cycle-stepped DOACROSS machine that holds issue cycles and memory only.
// Every cycle, each processor in index order issues the next row of its
// current iteration unless
//   - a wait in the row has not seen its send issue in an earlier cycle, or
//   - under a bounded window, a send in the row would overwrite the slot of
//     iteration i-Window while a consumer of that signal has not issued in
//     an earlier cycle.
//
// Processor p runs iterations p, p+P, ..., each starting the cycle after the
// previous one issued its last row. Issuing a row executes it against st
// unless st is nil. A cycle in which no processor issues means no processor
// ever will, which is reported as a deadlock.
func oracleRun(s *core.Schedule, st *lang.Store, opt Options) ([]oracleIter, error) {
	n, L, procs := opt.N(), s.Length(), opt.procs()
	its := make([]oracleIter, n)
	for i := range its {
		its[i].proc = i % procs
		its[i].rows = make([]int, L)
		for r := range its[i].rows {
			its[i].rows[r] = -1
		}
	}
	sendAt := map[string][]int{}       // signal -> iteration -> send cycle
	consumers := map[string][][2]int{} // signal -> (row, distance) of each wait
	for r, row := range s.Rows {
		for _, v := range row {
			in := s.Prog.Instrs[v]
			switch in.Op {
			case tac.Send:
				sendAt[in.Signal] = make([]int, n)
				for i := range sendAt[in.Signal] {
					sendAt[in.Signal][i] = -1
				}
			case tac.Wait:
				consumers[in.Signal] = append(consumers[in.Signal], [2]int{r, in.SigDist})
			}
		}
	}
	canIssue := func(i, r, cycle int) bool {
		for _, v := range s.Rows[r] {
			in := s.Prog.Instrs[v]
			switch {
			case in.Op == tac.Wait && i-in.SigDist >= 0:
				if c := sendAt[in.Signal][i-in.SigDist]; c < 0 || c >= cycle {
					return false
				}
			case in.Op == tac.Send && opt.Window > 0 && i >= opt.Window:
				for _, w := range consumers[in.Signal] {
					if ci := i - opt.Window + w[1]; ci != i {
						if c := its[ci].rows[w[0]]; c < 0 || c >= cycle {
							return false
						}
					}
				}
			}
		}
		return true
	}
	iter := make([]int, procs) // each processor's current iteration
	row := make([]int, procs)
	ready := make([]int, procs) // first cycle each processor may issue
	frames := make([]*tac.Frame, procs)
	for p := range iter {
		iter[p] = p
		if st != nil {
			frames[p] = tac.NewFrame(s.Prog.NumTemps, opt.Lo+p)
		}
	}
	left := n
	for cycle := 0; left > 0; cycle++ {
		issued := false
		for p := range iter {
			i, r := iter[p], row[p]
			if i >= n || cycle < ready[p] || !canIssue(i, r, cycle) {
				continue
			}
			issued = true
			it := &its[i]
			it.rows[r] = cycle
			fin := cycle
			for _, v := range s.Rows[r] {
				in := s.Prog.Instrs[v]
				fin = max(fin, cycle+s.Cfg.Latency[in.Class()])
				if in.Op == tac.Send {
					sendAt[in.Signal][i] = cycle
				}
				if st != nil {
					if err := tac.Exec(in, frames[p], st); err != nil {
						return nil, err
					}
				}
			}
			it.done = max(it.done, fin)
			ready[p] = cycle + 1
			if row[p]++; row[p] == L {
				left--
				iter[p], row[p] = i+procs, 0
				if i+procs < n {
					its[i+procs].start = cycle + 1
					if st != nil {
						frames[p] = tac.NewFrame(s.Prog.NumTemps, opt.Lo+i+procs)
					}
				}
			}
		}
		if !issued {
			return nil, fmt.Errorf("oracle: deadlock at cycle %d", cycle)
		}
	}
	return its, nil
}

// checkOracle traces Time on s under opt and compares it with the reference
// machine: every iteration's processor, start, completion and row issue
// cycles, the total and stall counters derived from them, and the trace's
// own attribution books. It returns Time's result.
func checkOracle(t testing.TB, s *core.Schedule, opt Options) Timing {
	t.Helper()
	tr := &Tracer{}
	opt.Tracer = tr
	tm, err := Time(s, opt)
	if err != nil {
		t.Fatalf("Time: %v", err)
	}
	if err := tr.Check(tm); err != nil {
		t.Errorf("attribution: %v", err)
	}
	want, err := oracleRun(s, nil, opt)
	if err != nil {
		t.Fatalf("%v\n%s", err, s.Listing())
	}
	total, stalls := 0, 0
	for k := range want {
		a, b := &tr.Iters[k], &want[k]
		if a.Proc != b.proc || a.Start != b.start || a.Done != b.done {
			t.Fatalf("iteration %d: Time proc=%d start=%d done=%d, oracle proc=%d start=%d done=%d",
				k, a.Proc, a.Start, a.Done, b.proc, b.start, b.done)
		}
		lower := b.start
		for r := range b.rows {
			if int(a.Rows[r]) != b.rows[r] {
				t.Fatalf("iteration %d row %d: Time issues at %d, oracle at %d", k, r, a.Rows[r], b.rows[r])
			}
			stalls += b.rows[r] - lower
			lower = b.rows[r] + 1
		}
		total = max(total, b.done)
	}
	if tm.Total != total || tm.StallCycles != stalls {
		t.Fatalf("Time total %d stalls %d, oracle total %d stalls %d", tm.Total, tm.StallCycles, total, stalls)
	}
	return tm
}

// oracleCorpus returns the first want loops of the Perfect-profile variant
// suites, the corpus of the facade's differential tests.
func oracleCorpus(t *testing.T, want int) []perfect.Loop {
	t.Helper()
	var out []perfect.Loop
	for variant := uint64(0); len(out) < want; variant++ {
		for _, p := range perfect.Profiles() {
			p.Name = fmt.Sprintf("%s/v%d", p.Name, variant)
			p.Seed = p.Seed ^ (variant * 0x9E3779B97F4A7C15)
			s, err := perfect.Generate(p)
			if err != nil {
				t.Fatalf("generate %s: %v", p.Name, err)
			}
			out = append(out, s.Loops...)
			if len(out) >= want {
				break
			}
		}
	}
	return out[:want]
}

// TestTraceRowsMatchOracle: over ~200 generated loops on three machines and
// three processor counts, Time's trace issues every row of every iteration
// on the same processor and at the same cycle as the reference machine.
func TestTraceRowsMatchOracle(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 50
	}
	machines := []dlx.Config{dlx.Standard(4, 1), dlx.Standard(2, 2), dlx.Uniform(2, 1)}
	procsChoices := []int{0, 3, 1}
	for i, gl := range oracleCorpus(t, count) {
		t.Run(fmt.Sprintf("%03d-%s", i, gl.Template), func(t *testing.T) {
			s := mustSync(t, build(t, gl.Source), machines[i%len(machines)])
			checkOracle(t, s, Options{Lo: 1, Hi: 12, Procs: procsChoices[i%len(procsChoices)]})
		})
	}
}

// TestTraceRowsMatchOracleWindow is TestTraceRowsMatchOracle under the
// tightest always-valid signal window, one past the largest dependence
// distance (equality on an LFD pair is rejected).
func TestTraceRowsMatchOracleWindow(t *testing.T) {
	for i, gl := range oracleCorpus(t, 40) {
		t.Run(fmt.Sprintf("%03d-%s", i, gl.Template), func(t *testing.T) {
			s := mustSync(t, build(t, gl.Source), dlx.Standard(2, 1))
			maxDist := 1
			for _, in := range s.Prog.Instrs {
				if in.Op == tac.Wait && in.SigDist > maxDist {
					maxDist = in.SigDist
				}
			}
			checkOracle(t, s, Options{Lo: 1, Hi: 10, Procs: 4, Window: maxDist + 1})
		})
	}
}

// TestReplayOrderMatchesOracle: with its waits stripped, a schedule runs its
// iterations in lockstep, so rows of different iterations that touch the
// same element issue in the same cycle and the result depends on the order
// within the cycle. Run's memory must still be the reference machine's,
// which issues processors in index order. (A schedule that honours its
// waits never puts two such rows in one cycle: a sink issues at least one
// cycle after its source's send.)
func TestReplayOrderMatchesOracle(t *testing.T) {
	for _, src := range []string{
		chainSource,
		fig1Source,
		"DO I = 1, N\nA[I] = E[I]\nB[I] = A[I-1]\nENDDO",
	} {
		b := build(t, src)
		for _, cfg := range dlx.PaperConfigs() {
			for _, s := range []*core.Schedule{mustList(t, b, cfg), mustSync(t, b, cfg)} {
				unsync := *s
				prog := *s.Prog
				prog.Instrs = make([]*tac.Instr, len(s.Prog.Instrs))
				for i, in := range s.Prog.Instrs {
					cp := *in
					if cp.Op == tac.Wait {
						cp.SigDist = 1000 // beyond the trip count: never waits
					}
					prog.Instrs[i] = &cp
				}
				unsync.Prog = &prog
				opt := Options{Lo: 1, Hi: 10}
				got := b.loop.SeedStore(10, 4, 1)
				want := got.Clone()
				if _, err := Run(&unsync, got, opt); err != nil {
					t.Fatal(err)
				}
				if _, err := oracleRun(&unsync, want, opt); err != nil {
					t.Fatal(err)
				}
				if d := want.Diff(got); d != "" {
					t.Errorf("%s/%s on %q: Run's memory differs from the reference machine's: %s", cfg.Name, s.Method, src, d)
				}
			}
		}
	}
}

// FuzzTimeOracle fuzzes the timing model against the reference machine over
// loop source, issue width, processor count and signal window: Time's
// per-row cycles must equal the oracle's, its trace must pass its own
// books, and Run's memory must equal the sequential interpreter's.
func FuzzTimeOracle(f *testing.F) {
	for _, src := range []string{
		fig1Source,
		chainSource,
		"DO I = 1, N\nIF (E[I] > 0) A[I] = A[I-1] + E[I]\nENDDO",
		"DO I = 1, N\nIF (A[I] > M) M = A[I]\nENDDO",
	} {
		f.Add(src, uint8(2), uint8(0), uint8(0))
		f.Add(src, uint8(4), uint8(3), uint8(3))
		f.Add(src, uint8(1), uint8(0), uint8(2))
	}
	f.Fuzz(func(t *testing.T, src string, width, procs, window uint8) {
		loop, err := lang.Parse(src)
		if err != nil {
			return
		}
		a := dep.Analyze(loop)
		prog, err := tac.Generate(syncop.Insert(a, syncop.Options{}))
		if err != nil {
			return
		}
		g, err := dfg.Build(prog, a)
		if err != nil {
			return
		}
		s, err := core.Sync(g, dlx.Standard(1+int(width)%4, 1))
		if err != nil || s.Length() == 0 {
			return
		}
		ref := loop.SeedStore(10, 16, uint64(width)<<16|uint64(procs)<<8|uint64(window))
		lo, hi, err := loop.Bounds(ref)
		if err != nil || hi-lo >= 32 {
			return
		}
		opt := Options{Lo: lo, Hi: hi, Procs: int(procs) % 12, Window: int(window) % 12}
		if _, err := Time(s, opt); err != nil {
			return // a window Time rejects
		}
		checkOracle(t, s, opt)
		got := ref.Clone()
		if err := loop.Run(ref); err != nil {
			return
		}
		if _, err := Run(s, got, opt); err != nil {
			t.Fatal(err)
		}
		if d := ref.Diff(got); d != "" {
			t.Fatalf("parallel memory differs from sequential: %s\n%s", d, s.Listing())
		}
	})
}
