package passes

import (
	"strings"
	"testing"
)

func TestVerifyPassAuditsGraph(t *testing.T) {
	ctx, err := Compile(fig1, Options{Verify: true, Dump: []string{PassVerify}})
	if err != nil {
		t.Fatalf("verify pass failed on the Fig. 1 loop: %v", err)
	}
	if ctx.VerifyEdges == 0 {
		t.Error("verify pass derived no edges")
	}
	names := New(Options{Verify: true}).Names()
	if names[len(names)-1] != PassVerify {
		t.Errorf("verify pass not last: %v", names)
	}
	a, ok := ctx.Trace.Artifact(PassVerify)
	if !ok || !strings.Contains(a, "verified") {
		t.Errorf("verify artifact = %q, %v", a, ok)
	}
	found := false
	for _, tm := range ctx.Trace.Timings {
		if tm.Pass == PassVerify {
			found = true
		}
	}
	if !found {
		t.Error("no verify timing recorded")
	}
}

func TestVerifyPassRejectsDeadlockingSource(t *testing.T) {
	// The wait on S2 has no matching send: a static deadlock the linter
	// must fail the compilation for (only under Options.Verify).
	src := `DOACROSS I = 1, N
  Wait_Signal(S2, I-1)
  S1: A[I] = B[I-1] + 1
  Send_Signal(S1)
  S2: B[I] = A[I-1] * 2
ENDDO`
	if _, err := Compile(src, Options{}); err != nil {
		t.Fatalf("default pipeline must ignore explicit sync: %v", err)
	}
	ctx, err := Compile(src, Options{Verify: true})
	if err == nil {
		t.Fatal("verify pass accepted a statically deadlocking loop")
	}
	if !strings.Contains(err.Error(), "static deadlock") {
		t.Errorf("error %q does not mention the deadlock", err)
	}
	if len(ctx.LintFindings) == 0 {
		t.Error("no lint findings recorded in the context")
	}
}

// TestVerifyPassRejectsMissingArc drops each data-flow graph arc in turn:
// every arc of Fig. 1 carries a derived edge, so the audit must fail.
func TestVerifyPassRejectsMissingArc(t *testing.T) {
	ctx, err := Compile(fig1, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if err := (verifyPass{}).Run(ctx); err != nil {
		t.Fatalf("audit rejected the built graph: %v", err)
	}
	arcs := ctx.Graph.Arcs
	for i, a := range arcs {
		ctx.Graph.Arcs = append(arcs[:i:i], arcs[i+1:]...)
		err := (verifyPass{}).Run(ctx)
		if err == nil || !strings.Contains(err.Error(), "dfg audit") {
			t.Errorf("arc %d->%d dropped: err = %v, want a dfg audit failure", a.From+1, a.To+1, err)
		}
	}
}
