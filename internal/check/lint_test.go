package check_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"doacross"
	"doacross/internal/check"
	"doacross/internal/dep"
	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/syncop"
)

func lint(t *testing.T, src string) (errs, warns []string) {
	t.Helper()
	loop, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	l := check.Lint(loop)
	for _, d := range l.Errors() {
		errs = append(errs, d.Error())
	}
	for _, d := range l.Warnings() {
		warns = append(warns, d.Error())
	}
	return errs, warns
}

func wantFinding(t *testing.T, got []string, frag string) {
	t.Helper()
	for _, g := range got {
		if strings.Contains(g, frag) {
			return
		}
	}
	t.Errorf("no finding mentions %q; got %q", frag, got)
}

func TestLintCleanLoop(t *testing.T) {
	// The paper's Fig. 1(b): explicit synchronization exactly matching the
	// analyzed dependences.
	errs, warns := lint(t, `DOACROSS I = 1, N
  Wait_Signal(S3, I-2)
  S1: B[I] = A[I-2] + E[I+1]
  Wait_Signal(S3, I-1)
  S2: G[I-3] = A[I-1] * E[I+2]
  S3: A[I] = B[I] + C[I+3]
  Send_Signal(S3)
ENDDO`)
	if len(errs) != 0 || len(warns) != 0 {
		t.Errorf("clean loop has findings: errors %q, warnings %q", errs, warns)
	}
}

func TestLintMissingSend(t *testing.T) {
	errs, warns := lint(t, `DOACROSS I = 1, N
  Wait_Signal(S2, I-1)
  S1: A[I] = B[I-1] + 1
  Send_Signal(S1)
  S2: B[I] = A[I-1] * 2
ENDDO`)
	wantFinding(t, errs, "static deadlock")
	wantFinding(t, errs, "no matching Send_Signal(S2)")
	wantFinding(t, warns, "never awaited")
}

func TestLintUnknownLabel(t *testing.T) {
	errs, _ := lint(t, `DOACROSS I = 1, N
  Wait_Signal(S9, I-1)
  S1: A[I] = A[I-1] + 1
  Send_Signal(S1)
  Wait_Signal(S1, I-1)
  S2: B[I] = A[I-1] + 2
ENDDO`)
	wantFinding(t, errs, `unknown statement label "S9"`)
}

func TestLintNegativeDistance(t *testing.T) {
	errs, _ := lint(t, `DOACROSS I = 1, N
  Wait_Signal(S1, I+1)
  S1: A[I] = A[I-1] + 1
  Send_Signal(S1)
ENDDO`)
	wantFinding(t, errs, "future iteration")
}

func TestLintSelfSynchronization(t *testing.T) {
	errs, _ := lint(t, `DOACROSS I = 1, N
  S1: A[I] = A[I-1] + 1
  Wait_Signal(S2, I)
  S2: B[I] = A[I] * 2
  Send_Signal(S2)
ENDDO`)
	wantFinding(t, errs, "self-synchronization deadlock")
}

func TestLintDistanceZeroRedundant(t *testing.T) {
	_, warns := lint(t, `DOACROSS I = 1, N
  S1: A[I] = A[I-1] + 1
  Send_Signal(S1)
  Wait_Signal(S1, I)
  S2: B[I] = A[I] * 2
ENDDO`)
	wantFinding(t, warns, "always satisfied")
}

func TestLintSendBeforeSource(t *testing.T) {
	errs, _ := lint(t, `DOACROSS I = 1, N
  Send_Signal(S1)
  S1: A[I] = A[I-1] + 1
  Wait_Signal(S1, I-1)
  S2: B[I] = A[I-1] + 2
ENDDO`)
	wantFinding(t, errs, "precedes its source statement")
}

func TestLintDistanceMismatch(t *testing.T) {
	_, warns := lint(t, `DOACROSS I = 1, N
  S1: A[I] = B[I] + 1
  Send_Signal(S1)
  Wait_Signal(S1, I-3)
  S2: C[I] = A[I-2] * 2
ENDDO`)
	wantFinding(t, warns, "matches no analyzed dependence")
}

func TestLintDuplicateSend(t *testing.T) {
	_, warns := lint(t, `DOACROSS I = 1, N
  S1: A[I] = A[I-1] + 1
  Send_Signal(S1)
  Send_Signal(S1)
  Wait_Signal(S1, I-1)
  S2: B[I] = A[I-1] + 2
ENDDO`)
	wantFinding(t, warns, "duplicate Send_Signal(S1)")
}

// TestLintTransitiveRedundancy: Wait_Signal(S3, I-1) before S1 makes both
// other waits redundant — Wait_Signal(S1, I-1) directly (completing S3 of
// the previous iteration implies completing its S1), and the trailing
// Wait_Signal(S3, I-2) by chaining the S3 wait across two iterations
// (distances sum to 2 and the anchors compose). The load-bearing wait
// itself must not be flagged.
func TestLintTransitiveRedundancy(t *testing.T) {
	loop, err := lang.Parse(`DOACROSS I = 1, N
  Wait_Signal(S3, I-1)
  S1: A[I] = C[I-1] + 1
  Wait_Signal(S1, I-1)
  S2: B[I] = A[I-1] * 2
  Wait_Signal(S3, I-2)
  S3: C[I] = B[I-1] + 3
  Send_Signal(S1)
  Send_Signal(S3)
ENDDO`)
	if err != nil {
		t.Fatal(err)
	}
	l := check.Lint(loop)
	var redundant []string
	for _, d := range l {
		if strings.Contains(d.Error(), "subsumed by transitive synchronization") {
			redundant = append(redundant, d.Error())
		}
	}
	if len(redundant) != 2 {
		t.Fatalf("want two transitive-redundancy findings, got %q (all: %s)", redundant, l)
	}
	wantFinding(t, redundant, "Wait_Signal(S1, I-1) is redundant")
	wantFinding(t, redundant, "Wait_Signal(S3, I-2) is redundant")
	for _, r := range redundant {
		if strings.Contains(r, "Wait_Signal(S3, I-1) is redundant") {
			t.Errorf("load-bearing wait flagged: %s", r)
		}
	}
}

// TestLintDuplicateWait: of two identical waits only the later is flagged
// (the first serves as its chain, then stays).
func TestLintDuplicateWait(t *testing.T) {
	loop, err := lang.Parse(`DOACROSS I = 1, N
  Wait_Signal(S2, I-1)
  S1: A[I] = B[I-1] + 1
  Wait_Signal(S2, I-1)
  S2: B[I] = A[I-1] * 2
  Send_Signal(S2)
ENDDO`)
	if err != nil {
		t.Fatal(err)
	}
	l := check.Lint(loop)
	count := 0
	for _, d := range l {
		if strings.Contains(d.Error(), "subsumed by transitive synchronization") {
			count++
		}
	}
	if count != 1 {
		t.Errorf("want 1 duplicate-wait finding, got %d:\n%s", count, l)
	}
}

// TestLintSyncCompilerOutput: compiler-inserted synchronization never
// produces lint errors (warnings — e.g. transitivity-redundant waits — are
// legitimate findings on it).
func TestLintSyncCompilerOutput(t *testing.T) {
	for _, src := range []string{paperSrc, condSrc} {
		loop, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		sl := syncop.Insert(dep.Analyze(loop), syncop.Options{})
		if l := check.LintSync(sl); len(l.Errors()) != 0 {
			t.Errorf("compiler-inserted sync lints with errors:\n%s", l.Errors())
		}
	}
}

func TestLintNoSyncOps(t *testing.T) {
	loop, err := lang.Parse("DO I = 1, N\n  S1: A[I] = B[I] + 1\nENDDO")
	if err != nil {
		t.Fatal(err)
	}
	if l := check.Lint(loop); len(l) != 0 {
		t.Errorf("loop without sync ops has findings: %s", l)
	}
}

// TestLintProvablyRedundantArc: a hand-written wait guarding a statement pair
// the precise analysis proves independent is flagged with the certificate.
func TestLintProvablyRedundantArc(t *testing.T) {
	_, warns := lint(t, `DOACROSS I = 1, N
  S1: A[2*I] = B[I] + 1
  Wait_Signal(S1, I-1)
  S2: C[I] = A[2*I+1] * 2
  Send_Signal(S1)
ENDDO`)
	wantFinding(t, warns, "provably-redundant synchronization arc")
	wantFinding(t, warns, "proven independent (gcd)")
}

// TestLintConservativeHotspot: a statement party to several pair decisions
// the analyzer could not refine is flagged with line:col and the reasons.
func TestLintConservativeHotspot(t *testing.T) {
	_, warns := lint(t, `DOACROSS I = 1, N
  Wait_Signal(S3, I-1)
  S1: A[X[I]] = B[I] + 1
  S2: C[I] = A[X[I]+1] * 2
  S3: A[I*I] = C[I-1] + 3
  Send_Signal(S3)
ENDDO`)
	wantFinding(t, warns, "conservative-dependence hotspot")
	wantFinding(t, warns, "non-affine")
	found := false
	for _, w := range warns {
		if strings.Contains(w, "hotspot") && strings.Contains(w, "line 3") {
			found = true
		}
	}
	if !found {
		t.Errorf("hotspot finding carries no source position; got %q", warns)
	}
}

// sameLint fails the test unless the linter's findings equal the oracle's,
// field by field and in order.
func sameLint(t *testing.T, what string, got, want diag.List) {
	t.Helper()
	if !reflect.DeepEqual(got, want) {
		t.Errorf("%s: linter diverges from the oracle:\n-- lint --\n%s-- oracle --\n%s", what, got, want)
	}
}

// TestLintMatchesOracle is the differential for the allocation-lean
// linter: over the Perfect-profile suites and 200 generated loops, LintSync
// on the compiled synchronization and Lint on the same synchronization
// written out as source must report exactly what the old linter reports.
func TestLintMatchesOracle(t *testing.T) {
	srcs := differentialCorpus(t, 200)
	// A distance too large for the flat visited set, subsumed by a chain
	// that uses one wait twice.
	srcs = append(srcs, `DOACROSS I = 1, N
  Wait_Signal(S1, I-50000)
  Wait_Signal(S1, I-50000)
  Wait_Signal(S1, I-100000)
  S1: A[I] = A[I-50000] + A[I-100000]
  Send_Signal(S1)
ENDDO`)
	redundant := 0
	for i, src := range srcs {
		loop, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("loop %d: parse: %v", i, err)
		}
		if len(loop.Syncs) > 0 {
			l := check.Lint(loop)
			sameLint(t, fmt.Sprintf("loop %d: Lint", i), l, oracleLint(loop))
			redundant += countRedundant(l)
			continue
		}
		p, err := doacross.Compile(src)
		if err != nil {
			t.Fatalf("loop %d: compile: %v\n%s", i, err, src)
		}
		l := check.LintSync(p.Sync)
		sameLint(t, fmt.Sprintf("loop %d: LintSync", i), l, oracleLintSync(p.Sync))
		redundant += countRedundant(l)
		written, err := lang.Parse(p.Sync.String())
		if err != nil {
			t.Fatalf("loop %d: the synchronized loop does not parse back: %v\n%s", i, err, p.Sync)
		}
		l = check.Lint(written)
		sameLint(t, fmt.Sprintf("loop %d: Lint of the written synchronization", i), l, oracleLint(written))
		redundant += countRedundant(l)
	}
	if redundant == 0 {
		t.Fatal("no redundant wait found in the corpus; the differential proves nothing about the search")
	}
	t.Logf("%d loops, %d redundant-wait findings", len(srcs), redundant)
}

func countRedundant(l diag.List) int {
	n := 0
	for _, d := range l {
		if strings.Contains(d.Error(), "subsumed by transitive synchronization") {
			n++
		}
	}
	return n
}

// lintFuzzStmts are the statements FuzzLintRedundantWaits builds loops
// from: chained flow dependences at distances 1 to 3.
var lintFuzzStmts = []string{
	"A[I] = A[I-1] + D[I-2]",
	"B[I] = A[I-2] * C[I]",
	"C[I] = B[I-1] + A[I-3]",
	"D[I] = C[I-2] + D[I-1]",
}

// lintFuzzSource writes a loop of one to four statements with explicit
// synchronization decoded from data: two bytes per op give its kind, its
// signal (possibly an unknown label), its position and a wait's distance
// (-1 to 6).
func lintFuzzSource(data []byte) string {
	if len(data) == 0 {
		data = []byte{0}
	}
	n := 1 + int(data[0])%len(lintFuzzStmts)
	type op struct {
		text string
		at   int
	}
	var ops []op
	for i := 1; i+1 < len(data) && len(ops) < 12; i += 2 {
		b, dist := data[i], int(data[i+1]%8)-1
		label := fmt.Sprintf("S%d", 1+int(b>>1)%(n+1)) // S(n+1) is unknown
		o := op{text: "Send_Signal(" + label + ")", at: int(b>>4) % (n + 1)}
		if b&1 != 0 {
			switch {
			case dist == 0:
				o.text = "Wait_Signal(" + label + ", I)"
			case dist < 0:
				o.text = fmt.Sprintf("Wait_Signal(%s, I+%d)", label, -dist)
			default:
				o.text = fmt.Sprintf("Wait_Signal(%s, I-%d)", label, dist)
			}
		}
		ops = append(ops, o)
	}
	var sb strings.Builder
	sb.WriteString("DOACROSS I = 1, N\n")
	for k := 0; k <= n; k++ {
		for _, o := range ops {
			if o.at == k {
				sb.WriteString("  " + o.text + "\n")
			}
		}
		if k < n {
			fmt.Fprintf(&sb, "  S%d: %s\n", k+1, lintFuzzStmts[k])
		}
	}
	sb.WriteString("ENDDO\n")
	return sb.String()
}

// FuzzLintRedundantWaits checks Lint against the oracle on explicit
// Wait_Signal/Send_Signal sources: the same findings, in the same order,
// whatever the ops, their placement and their distances.
func FuzzLintRedundantWaits(f *testing.F) {
	// Two identical waits; a wait subsumed by a two-wait chain.
	f.Add([]byte{1, 0x03, 2, 0x03, 2, 0x00, 0})
	f.Add([]byte{2, 0x05, 2, 0x23, 2, 0x05, 3, 0x04, 0, 0x30, 0})
	f.Add([]byte{3, 0x01, 1, 0x13, 1, 0x25, 2, 0x37, 4, 0x46, 0, 0x32, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		src := lintFuzzSource(data)
		loop, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("generated source does not parse: %v\n%s", err, src)
		}
		sameLint(t, src, check.Lint(loop), oracleLint(loop))
	})
}
