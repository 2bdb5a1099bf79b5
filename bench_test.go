package doacross

// One benchmark per table and figure of the paper's evaluation, plus the
// ablation benches DESIGN.md calls out. Benchmarks that regenerate a result
// report it through b.ReportMetric, so `go test -bench .` reproduces the
// paper's numbers alongside the usual ns/op:
//
//	BenchmarkFig1SyncInsertion   Fig. 1  — synchronization insertion
//	BenchmarkFig2Codegen         Fig. 2  — three-address lowering
//	BenchmarkFig3GraphBuild      Fig. 3  — DFG + Sigwat partition
//	BenchmarkFig4                Fig. 4  — list vs new schedule + times
//	BenchmarkTable1              Table 1 — suite characteristics
//	BenchmarkTable2              Table 2 — parallel times, 4 configs
//	BenchmarkTable3              Table 3 — improvement percentages
//	BenchmarkSimFidelity         timing alone vs executing the loop
//	BenchmarkAblation*           design-choice ablations
import (
	"testing"

	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/lang"
	"doacross/internal/perfect"
	"doacross/internal/sim"
	"doacross/internal/syncop"
	"doacross/internal/tables"
	"doacross/internal/tac"
)

const benchN = 100 // the paper's trip count

// BenchmarkFig1SyncInsertion measures parse + dependence analysis +
// synchronization insertion for the Fig. 1 loop.
func BenchmarkFig1SyncInsertion(b *testing.B) {
	for i := 0; i < b.N; i++ {
		loop, err := lang.Parse(fig1)
		if err != nil {
			b.Fatal(err)
		}
		a := dep.Analyze(loop)
		sl := syncop.Insert(a, syncop.Options{})
		sends, waits := sl.NumOps()
		if sends != 1 || waits != 2 {
			b.Fatalf("unexpected sync ops %d/%d", sends, waits)
		}
	}
}

// BenchmarkFig2Codegen measures the DLX-style lowering.
func BenchmarkFig2Codegen(b *testing.B) {
	loop := lang.MustParse(fig1)
	a := dep.Analyze(loop)
	sl := syncop.Insert(a, syncop.Options{})
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p, err := tac.Generate(sl)
		if err != nil {
			b.Fatal(err)
		}
		if len(p.Instrs) != 28 {
			b.Fatalf("got %d instrs", len(p.Instrs))
		}
	}
}

// BenchmarkFig3GraphBuild measures DFG construction with the Sigwat
// partition and synchronization-path search.
func BenchmarkFig3GraphBuild(b *testing.B) {
	loop := lang.MustParse(fig1)
	a := dep.Analyze(loop)
	p := tac.MustGenerate(syncop.Insert(a, syncop.Options{}))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := dfg.Build(p, a)
		if err != nil {
			b.Fatal(err)
		}
		if len(g.SyncPaths()) != 1 {
			b.Fatal("missing sync path")
		}
	}
}

// BenchmarkFig4 regenerates the Fig. 4 experiment: both schedules at
// 4-issue and their parallel times. Metrics report the headline numbers.
func BenchmarkFig4(b *testing.B) {
	prog := MustCompile(fig1)
	m := UniformMachine(4, 1)
	var ta, tb int
	for i := 0; i < b.N; i++ {
		list, err := prog.ScheduleListProgramOrder(m)
		if err != nil {
			b.Fatal(err)
		}
		syn, err := prog.ScheduleSync(m)
		if err != nil {
			b.Fatal(err)
		}
		ta = Simulate(list, benchN).Total
		tb = Simulate(syn, benchN).Total
	}
	b.ReportMetric(float64(ta), "list-cycles")
	b.ReportMetric(float64(tb), "new-cycles")
	b.ReportMetric(Speedup(ta, tb), "improvement-%")
}

// BenchmarkFig4ListSchedule isolates the baseline scheduler.
func BenchmarkFig4ListSchedule(b *testing.B) {
	prog := MustCompile(fig1)
	m := UniformMachine(4, 1)
	for i := 0; i < b.N; i++ {
		if _, err := prog.ScheduleListProgramOrder(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4SyncSchedule isolates the new scheduler.
func BenchmarkFig4SyncSchedule(b *testing.B) {
	prog := MustCompile(fig1)
	m := UniformMachine(4, 1)
	for i := 0; i < b.N; i++ {
		if _, err := prog.ScheduleSync(m); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTable1 regenerates the benchmark-characteristics table.
func BenchmarkTable1(b *testing.B) {
	var total int
	for i := 0; i < b.N; i++ {
		suites, err := perfect.Suites()
		if err != nil {
			b.Fatal(err)
		}
		total = 0
		for _, s := range suites {
			c, err := s.Characteristics()
			if err != nil {
				b.Fatal(err)
			}
			total += c.LBD
		}
	}
	b.ReportMetric(float64(total), "total-LBD")
}

// BenchmarkTable2 regenerates the full Table 2 experiment (5 suites x 4
// machine configurations x 2 schedulers, 100 iterations each loop) and
// reports the grand totals.
func BenchmarkTable2(b *testing.B) {
	var r *tables.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = tables.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	for k := 0; k < tables.NumConfigs; k++ {
		b.ReportMetric(float64(r.Total2.Ta[k]), "Ta-cfg"+string(rune('1'+k)))
		b.ReportMetric(float64(r.Total2.Tb[k]), "Tb-cfg"+string(rune('1'+k)))
	}
}

// BenchmarkTable3 regenerates the improvement percentages.
func BenchmarkTable3(b *testing.B) {
	var r *tables.Result
	for i := 0; i < b.N; i++ {
		var err error
		r, err = tables.Run()
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(r.Summary2Issue, "mean-improvement-2issue-%")
	b.ReportMetric(r.Summary4Issue, "mean-improvement-4issue-%")
}

// BenchmarkSimFidelity prices execution on the same schedule: "recurrence"
// is the untraced timing model alone, "detailed" is Execute, which traces
// the same model and replays every row's instructions against a store at
// the traced issue cycles. Both must report the same cycle count.
func BenchmarkSimFidelity(b *testing.B) {
	prog := MustCompile(fig1)
	s, err := prog.ScheduleSync(Machine4Issue(1))
	if err != nil {
		b.Fatal(err)
	}
	b.Run("recurrence", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if Simulate(s, benchN).Total == 0 {
				b.Fatal("zero time")
			}
		}
	})
	b.Run("detailed", func(b *testing.B) {
		want := Simulate(s, benchN).Total
		for i := 0; i < b.N; i++ {
			b.StopTimer()
			st := prog.SeedStore(benchN, uint64(i))
			b.StartTimer()
			t, err := Execute(s, st, SimOptions{Lo: 1, Hi: benchN})
			if err != nil {
				b.Fatal(err)
			}
			if t.Total != want {
				b.Fatalf("detailed %d != recurrence %d", t.Total, want)
			}
		}
	})
}

// ablationCycles sums the simulated parallel time of FLQ52's DOACROSS loops
// under the sync scheduler with the given options.
func ablationCycles(b *testing.B, opt core.SyncOptions) int {
	b.Helper()
	suite, err := perfect.Generate(perfect.Profiles()[0]) // FLQ52
	if err != nil {
		b.Fatal(err)
	}
	m := Machine4Issue(1)
	total := 0
	for _, l := range suite.Doacross() {
		prog, err := CompileLoop(l.AST)
		if err != nil {
			b.Fatal(err)
		}
		s, err := prog.ScheduleSyncWithOptions(m, opt)
		if err != nil {
			b.Fatal(err)
		}
		t, err := sim.Time(s, sim.Options{Lo: 1, Hi: benchN})
		if err != nil {
			b.Fatal(err)
		}
		total += t.Total
	}
	return total
}

func benchAblation(b *testing.B, opt core.SyncOptions) {
	var cycles int
	for i := 0; i < b.N; i++ {
		cycles = ablationCycles(b, opt)
	}
	b.ReportMetric(float64(cycles), "FLQ52-cycles")
}

// BenchmarkAblationFull is the reference point: the complete technique.
func BenchmarkAblationFull(b *testing.B) { benchAblation(b, core.SyncOptions{}) }

// BenchmarkAblationSPOrder sorts synchronization paths ascending instead of
// the paper's descending (n/d)·|SP| order.
func BenchmarkAblationSPOrder(b *testing.B) { benchAblation(b, core.SyncOptions{AscendingSP: true}) }

// BenchmarkAblationContiguity disables lazy waits (the contiguous-SP rule at
// the path head).
func BenchmarkAblationContiguity(b *testing.B) { benchAblation(b, core.SyncOptions{NoLazyWaits: true}) }

// BenchmarkAblationPairArcs disables the LBD→LFD conversion arcs.
func BenchmarkAblationPairArcs(b *testing.B) { benchAblation(b, core.SyncOptions{NoPairArcs: true}) }

// BenchmarkAblationNoSPPriority drops the priority classes.
func BenchmarkAblationNoSPPriority(b *testing.B) {
	benchAblation(b, core.SyncOptions{NoSPPriority: true})
}

// BenchmarkRecurrenceSimulatorScaling measures the fast simulator on a long
// run (10k iterations) — it is linear in n and row count.
func BenchmarkRecurrenceSimulatorScaling(b *testing.B) {
	prog := MustCompile("DO I = 1, N\nA[I] = A[I-1] + 1\nENDDO")
	s, err := prog.ScheduleSync(Machine2Issue(1))
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < b.N; i++ {
		t, err := SimulateOptions(s, SimOptions{Lo: 1, Hi: 10000})
		if err != nil {
			b.Fatal(err)
		}
		if t.Total == 0 {
			b.Fatal("zero")
		}
	}
}

// The hot-path workloads (BenchmarkBatch64, BenchmarkHot*) live in
// hotbench_test.go, delegating to internal/hotbench so the same code backs
// `go test -bench` and the committed BENCH_hotpath.json snapshot.
