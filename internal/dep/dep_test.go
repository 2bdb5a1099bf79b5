package dep

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/loopgen"
)

const fig1Source = `
DO I = 1, N
  S1: B[I] = A[I-2] + E[I+1]
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
ENDDO
`

func find(deps []Dependence, kind Kind, src, snk, dist int) *Dependence {
	for i := range deps {
		d := deps[i]
		if d.Kind == kind && d.Src.Stmt == src && d.Snk.Stmt == snk && d.Distance == dist {
			return &deps[i]
		}
	}
	return nil
}

func TestAnalyzeFig1(t *testing.T) {
	a := Analyze(lang.MustParse(fig1Source))
	// The paper's two loop-carried dependences: S3 writes A[I]; S1 reads
	// A[I-2] (distance 2), S2 reads A[I-1] (distance 1).
	if d := find(a.Deps, Flow, 2, 0, 2); d == nil {
		t.Errorf("missing flow S3->S1 dist 2; have %v", a.Deps)
	} else if d.LexForward() {
		t.Error("S3->S1 should be lexically backward (LBD)")
	}
	if d := find(a.Deps, Flow, 2, 1, 1); d == nil {
		t.Errorf("missing flow S3->S2 dist 1; have %v", a.Deps)
	} else if d.LexForward() {
		t.Error("S3->S2 should be lexically backward (LBD)")
	}
	// Loop-independent flow: S1 writes B[I], S3 reads B[I].
	if d := find(a.Deps, Flow, 0, 2, 0); d == nil {
		t.Errorf("missing loop-independent flow S1->S3 (B); have %v", a.Deps)
	} else if !d.LexForward() {
		t.Error("S1->S3 should be lexically forward")
	}
	carried := a.Carried()
	if len(carried) != 2 {
		t.Errorf("carried deps = %v, want exactly the two A dependences", carried)
	}
	if a.IsDoall() {
		t.Error("Fig.1 loop must not be DOALL")
	}
	lfd, lbd := a.CountLexical()
	if lfd != 0 || lbd != 2 {
		t.Errorf("lexical counts = (%d LFD, %d LBD), want (0, 2)", lfd, lbd)
	}
}

func TestAnalyzeForwardCarried(t *testing.T) {
	// S1 writes A[I], S2 reads A[I-1]: carried flow S1->S2 dist 1, and the
	// source is textually first => LFD.
	a := Analyze(lang.MustParse("DO I = 1, N\nA[I] = E[I]\nB[I] = A[I-1]\nENDDO"))
	d := find(a.Deps, Flow, 0, 1, 1)
	if d == nil {
		t.Fatalf("missing flow S1->S2 dist 1; have %v", a.Deps)
	}
	if !d.LexForward() {
		t.Error("S1->S2 should be LFD")
	}
}

func TestAnalyzeAntiDependence(t *testing.T) {
	// S1 reads A[I+1]; S2 writes A[I]: iteration i+1 writes the element read
	// at iteration i => anti dependence read->write distance 1.
	a := Analyze(lang.MustParse("DO I = 1, N\nB[I] = A[I+1]\nA[I] = E[I]\nENDDO"))
	if d := find(a.Deps, Anti, 0, 1, 1); d == nil {
		t.Errorf("missing anti S1->S2 dist 1; have %v", a.Deps)
	}
}

func TestAnalyzeOutputDependence(t *testing.T) {
	// S1 writes A[I]; S2 writes A[I-1]: S2 at iteration i+1 overwrites what
	// S1 wrote at iteration i => output S1->S2 distance 1.
	a := Analyze(lang.MustParse("DO I = 1, N\nA[I] = 1\nA[I-1] = 2\nENDDO"))
	if d := find(a.Deps, Output, 0, 1, 1); d == nil {
		t.Errorf("missing output S1->S2 dist 1; have %v", a.Deps)
	}
	// And the loop-independent output A[I-1] after A[I]? Different elements
	// in one iteration, so none at distance 0 in that direction.
	if d := find(a.Deps, Output, 0, 1, 0); d != nil {
		t.Errorf("unexpected distance-0 output dependence %v", *d)
	}
}

func TestAnalyzeSameStatementRecurrence(t *testing.T) {
	// A[I] = A[I-1]: same statement, carried flow distance 1, LBD (src not
	// strictly before snk).
	a := Analyze(lang.MustParse("DO I = 1, N\nA[I] = A[I-1] + 1\nENDDO"))
	d := find(a.Deps, Flow, 0, 0, 1)
	if d == nil {
		t.Fatalf("missing self flow dist 1; have %v", a.Deps)
	}
	if d.LexForward() {
		t.Error("same-statement dependence must be LBD")
	}
}

func TestAnalyzeScalarReduction(t *testing.T) {
	a := Analyze(lang.MustParse("DO I = 1, N\nS = S + A[I]\nENDDO"))
	// Carried flow on S with distance 1 (each iteration reads the previous
	// iteration's S).
	if d := find(a.Deps, Flow, 0, 0, 1); d == nil {
		t.Errorf("missing scalar carried flow; have %v", a.Deps)
	}
	if a.IsDoall() {
		t.Error("reduction loop is not DOALL")
	}
}

func TestAnalyzeScalarFlowForward(t *testing.T) {
	// T = A[I]; B[I] = T: loop-independent scalar flow S1->S2, plus carried
	// anti S2's read... the key check: distance-0 flow exists and is LFD.
	a := Analyze(lang.MustParse("DO I = 1, N\nT = A[I]\nB[I] = T\nENDDO"))
	d := find(a.Deps, Flow, 0, 1, 0)
	if d == nil {
		t.Fatalf("missing scalar loop-independent flow; have %v", a.Deps)
	}
	if !d.LexForward() {
		t.Error("T flow should be LFD")
	}
}

func TestAnalyzeDoall(t *testing.T) {
	a := Analyze(lang.MustParse("DO I = 1, N\nA[I] = E[I] + 1\nB[I] = E[I] * 2\nENDDO"))
	if !a.IsDoall() {
		t.Errorf("independent loop should be DOALL; carried = %v", a.Carried())
	}
}

func TestAnalyzeDifferentArraysIndependent(t *testing.T) {
	a := Analyze(lang.MustParse("DO I = 1, N\nA[I] = B[I-1]\nB[I] = C[I-1]\nENDDO"))
	// A write never meets a B read of the same array... B[I] write vs B[I-1]
	// read IS a dependence (S2 -> S1 next iteration, distance 1).
	if d := find(a.Deps, Flow, 1, 0, 1); d == nil {
		t.Errorf("missing B dependence; have %v", a.Deps)
	}
	// But no dependence between A and C.
	for _, d := range a.Deps {
		if d.Src.Name() != d.Snk.Name() {
			t.Errorf("cross-array dependence reported: %v", d)
		}
	}
}

func TestAnalyzeNonAffineConservative(t *testing.T) {
	a := Analyze(lang.MustParse("DO I = 1, N\nA[X[I]] = 1\nB[I] = A[I]\nENDDO"))
	found := false
	for _, d := range a.Deps {
		if d.Conservative && d.Src.Name() == "A" {
			found = true
			if d.Distance != 1 && d.Distance != 0 {
				t.Errorf("conservative distance = %d, want 0 or 1", d.Distance)
			}
		}
	}
	if !found {
		t.Errorf("expected conservative dependence for A[X[I]]; have %v", a.Deps)
	}
}

func TestAnalyzeStrideMismatchGCD(t *testing.T) {
	// A[2*I] vs A[2*I+1]: even vs odd elements never collide.
	a := Analyze(lang.MustParse("DO I = 1, N\nA[2*I] = 1\nB[I] = A[2*I+1]\nENDDO"))
	for _, d := range a.Deps {
		if d.Src.Name() == "A" {
			t.Errorf("even/odd references should be independent: %v", d)
		}
	}
}

func TestAnalyzeConstantSubscript(t *testing.T) {
	// A[3] written every iteration and read every iteration: conservative
	// carried dependences must exist.
	a := Analyze(lang.MustParse("DO I = 1, N\nA[3] = A[3] + B[I]\nENDDO"))
	if a.IsDoall() {
		t.Error("A[3] accumulation must not be DOALL")
	}
}

func TestAnalyzeDistinctConstantsIndependent(t *testing.T) {
	a := Analyze(lang.MustParse("DO I = 1, N\nA[3] = B[I]\nC[I] = A[5]\nENDDO"))
	for _, d := range a.Deps {
		if d.Src.Name() == "A" {
			t.Errorf("A[3] vs A[5] should be independent: %v", d)
		}
	}
}

func TestNonUnitCoefficientDistance(t *testing.T) {
	// A[2*I] write, A[2*I-4] read: gap = ((2*i) - (2*j-4))=0 -> j = i+2.
	a := Analyze(lang.MustParse("DO I = 1, N\nA[2*I] = 1\nB[I] = A[2*I-4]\nENDDO"))
	if d := find(a.Deps, Flow, 0, 1, 2); d == nil {
		t.Errorf("missing flow dist 2 for stride-2 refs; have %v", a.Deps)
	}
}

func TestNonDivisibleOffsetIndependent(t *testing.T) {
	// A[2*I] vs A[2*I-3]: offsets differ by odd amount with stride 2.
	a := Analyze(lang.MustParse("DO I = 1, N\nA[2*I] = 1\nB[I] = A[2*I-3]\nENDDO"))
	for _, d := range a.Deps {
		if d.Src.Name() == "A" {
			t.Errorf("non-divisible offset should be independent: %v", d)
		}
	}
}

func TestDeterministicOrder(t *testing.T) {
	loop := lang.MustParse(fig1Source)
	a1 := Analyze(loop)
	a2 := Analyze(loop)
	if len(a1.Deps) != len(a2.Deps) {
		t.Fatal("non-deterministic dependence count")
	}
	for i := range a1.Deps {
		if a1.Deps[i].String() != a2.Deps[i].String() {
			t.Errorf("dep %d differs: %v vs %v", i, a1.Deps[i], a2.Deps[i])
		}
	}
}

// TestQuickCarriedDepsJustifySequentialObservations is the semantic property
// anchoring the analyzer: if the analyzer says a loop is DOALL, executing
// iterations in any order must produce the sequential result.
func TestQuickDoallMeansOrderIndependent(t *testing.T) {
	arrays := []string{"A", "B", "C"}
	cfg := &quick.Config{MaxCount: 250}
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		loop := &lang.Loop{Var: "I", Lo: &lang.Const{Value: 1}, Hi: &lang.Scalar{Name: "N"}}
		nst := 1 + r.Intn(4)
		for s := 0; s < nst; s++ {
			lhs := &lang.ArrayRef{Name: arrays[r.Intn(3)], Index: &lang.Binary{Op: lang.OpAdd, L: &lang.Scalar{Name: "I"}, R: &lang.Const{Value: float64(r.Intn(5) - 2)}}}
			rhs := &lang.Binary{Op: lang.BinOp(r.Intn(2)), // + or - keeps arithmetic exact
				L: &lang.ArrayRef{Name: arrays[r.Intn(3)], Index: &lang.Binary{Op: lang.OpAdd, L: &lang.Scalar{Name: "I"}, R: &lang.Const{Value: float64(r.Intn(5) - 2)}}},
				R: &lang.ArrayRef{Name: arrays[r.Intn(3)], Index: &lang.Binary{Op: lang.OpAdd, L: &lang.Scalar{Name: "I"}, R: &lang.Const{Value: float64(r.Intn(5) - 2)}}}}
			loop.Body = append(loop.Body, &lang.Assign{Label: "S" + string(rune('1'+s)), LHS: lhs, RHS: rhs})
		}
		a := Analyze(loop)
		if !a.IsDoall() {
			return true // property only constrains DOALL verdicts
		}
		n := 6
		seq := loop.SeedStore(n, 8, uint64(seed)+9)
		rev := seq.Clone()
		if err := loop.Run(seq); err != nil {
			return true
		}
		// Reverse iteration order.
		for i := n; i >= 1; i-- {
			if err := loop.RunIteration(rev, i); err != nil {
				return true
			}
		}
		if d := seq.Diff(rev); d != "" {
			t.Logf("seed %d: DOALL verdict but order matters: %s\n%s", seed, d, loop)
			return false
		}
		return true
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}

func TestKindString(t *testing.T) {
	if Flow.String() != "flow" || Anti.String() != "anti" || Output.String() != "output" {
		t.Error("Kind.String mismatch")
	}
}

func TestStrideMismatchOverlap(t *testing.T) {
	// A[2*I] vs A[3*I]: gcd 1 divides everything -> conservative dependence.
	a := Analyze(lang.MustParse("DO I = 1, N\nA[2*I] = 1\nB[I] = A[3*I]\nENDDO"))
	found := false
	for _, d := range a.Deps {
		if d.Src.Name() == "A" && d.Conservative {
			found = true
		}
	}
	if !found {
		t.Errorf("expected conservative dependence for mismatched strides: %v", a.Deps)
	}
}

func TestStrideMismatchGCDDisproof(t *testing.T) {
	// A[2*I] vs A[4*I+1]: gcd 2 does not divide 1 -> provably independent.
	a := Analyze(lang.MustParse("DO I = 1, N\nA[2*I] = 1\nB[I] = A[4*I+1]\nENDDO"))
	for _, d := range a.Deps {
		if d.Src.Name() == "A" {
			t.Errorf("even/odd stride pair should be independent: %v", d)
		}
	}
}

func TestCarriedFlowFilter(t *testing.T) {
	// One carried flow (A) and one carried anti (B).
	a := Analyze(lang.MustParse("DO I = 1, N\nC[I] = A[I-1] + B[I+1]\nA[I] = 1\nB[I] = 2\nENDDO"))
	flows := a.CarriedFlow()
	for _, d := range flows {
		if d.Kind != Flow || !d.Carried() {
			t.Errorf("CarriedFlow returned %v", d)
		}
	}
	if len(flows) == 0 {
		t.Error("expected at least one carried flow dependence")
	}
	if len(flows) >= len(a.Carried()) {
		t.Errorf("CarriedFlow (%d) should filter out the anti dep (%d carried total)", len(flows), len(a.Carried()))
	}
}

func TestScalarOutputDependences(t *testing.T) {
	// Two writes to the same scalar in one iteration: loop-independent
	// output S1->S2 plus carried output S2->S1 (next iteration overwrites).
	a := Analyze(lang.MustParse("DO I = 1, N\nT = A[I]\nT = B[I]\nC[I] = T\nENDDO"))
	if find(a.Deps, Output, 0, 1, 0) == nil {
		t.Errorf("missing loop-independent scalar output dep: %v", a.Deps)
	}
	if find(a.Deps, Output, 1, 0, 1) == nil {
		t.Errorf("missing carried scalar output dep: %v", a.Deps)
	}
}

func TestConservativeOutputDependences(t *testing.T) {
	// Two writes through unanalyzable subscripts.
	a := Analyze(lang.MustParse("DO I = 1, N\nA[X[I]] = 1\nA[Y[I]] = 2\nENDDO"))
	found := false
	for _, d := range a.Deps {
		if d.Kind == Output && d.Conservative {
			found = true
		}
	}
	if !found {
		t.Errorf("expected conservative output dependences: %v", a.Deps)
	}
}

// TestDiagnosticsRenderOnce: deduplicating on the dependence fields reports
// exactly the warnings that rendering every conservative dependence and
// deduplicating the rendered text reports, in the same order, over
// generated loops of every shape in both analysis modes.
func TestDiagnosticsRenderOnce(t *testing.T) {
	reference := func(a *Analysis) []string {
		var out []string
		seen := map[string]bool{}
		for _, d := range a.Deps {
			if !d.Conservative {
				continue
			}
			st := a.Loop.Body[d.Src.Stmt]
			w := diag.Warningf("dep", st.Pos(),
				"conservative dependence assumed (%s): %s", conservativeReason(d.Evidence.Rule), d).WithStmt(st.Label)
			if key := w.Error(); !seen[key] {
				seen[key] = true
				out = append(out, key)
			}
		}
		return out
	}
	warnings, dropped := 0, 0
	for seed := uint64(1); seed <= 60; seed++ {
		for shape := 0; shape < 6; shape++ {
			src := loopgen.Generate(seed, loopgen.Options{Shape: loopgen.Shape(shape), Stmts: 1 + int(seed)%4})
			loop := lang.MustParse(src)
			for _, baseline := range []bool{false, true} {
				a := AnalyzeOpts(loop, Options{Baseline: baseline})
				var got []string
				for _, d := range a.Diagnostics() {
					got = append(got, d.Error())
				}
				want := reference(a)
				if !slices.Equal(got, want) {
					t.Fatalf("baseline=%v:\n%s\ngot  %q\nwant %q", baseline, src, got, want)
				}
				conservative := 0
				for _, d := range a.Deps {
					if d.Conservative {
						conservative++
					}
				}
				warnings += len(want)
				dropped += conservative - len(want)
			}
		}
	}
	if warnings == 0 || dropped == 0 {
		t.Fatalf("%d warnings, %d duplicates dropped: the corpus does not exercise the deduplication", warnings, dropped)
	}
}
