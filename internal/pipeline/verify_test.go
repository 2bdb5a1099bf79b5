package pipeline

// Differential test of the independent schedule verifier against the
// pipeline: every schedule the service emits — list, and sync from the
// paper's heuristic or the never-degrades "best" backend, across
// machine shapes, fresh and cached, and degraded under injected faults —
// must pass internal/check's re-derivation of the dependence and
// synchronization constraints. The verifier shares no code with the
// schedulers, so agreement here is a translation-validation result, not a
// tautology.

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dlx"
	"doacross/internal/passes"
)

// TestDifferentialVerify: the pipeline's verify stage accepts 100% of the
// schedules the schedulers emit over a 200-loop corpus, and the counters
// account for every schedule set exactly.
func TestDifferentialVerify(t *testing.T) {
	n := 200
	if testing.Short() {
		n = 60
	}
	srcs := corpus(n)
	machines := dlx.PaperConfigs()
	b := run(t, srcs, Options{
		Workers:  8,
		Machines: machines,
		Compile:  passes.Options{Backend: "best"},
		Metrics:  NewMetrics(),
	})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	sets := 0
	for _, lr := range b.Loops {
		if lr.Degraded() {
			t.Fatalf("%s degraded without fault injection", lr.Name)
		}
		for _, mr := range lr.Machines {
			sets++
			for which, s := range map[string]*core.Schedule{
				"list": mr.List, "sync": mr.Sync,
			} {
				if s == nil {
					t.Fatalf("%s on %s: missing %s schedule", lr.Name, mr.Machine, which)
				}
				if l := check.Verify(s); check.Err(l) != nil {
					t.Errorf("%s on %s: emitted %s schedule rejected by the verifier:\n%s",
						lr.Name, mr.Machine, which, l)
				}
			}
			// The timing audit the pipeline applied must also re-confirm
			// standalone, for both served schedules.
			if err := check.Err(check.VerifyTiming(mr.Sync, mr.SyncTime, lr.N)); err != nil {
				t.Errorf("%s on %s: sync timing audit failed: %v", lr.Name, mr.Machine, err)
			}
			if err := check.Err(check.VerifyTiming(mr.List, mr.ListTime, lr.N)); err != nil {
				t.Errorf("%s on %s: list timing audit failed: %v", lr.Name, mr.Machine, err)
			}
		}
	}
	if b.Stats.Verified != int64(sets) {
		t.Errorf("verified counter = %d, want %d (one per loop × machine)", b.Stats.Verified, sets)
	}
	if b.Stats.Rejected != 0 {
		t.Errorf("rejected counter = %d on an organic batch, want 0", b.Stats.Rejected)
	}
	if b.Stats.Stage(StageVerify).Count != int64(sets) {
		t.Errorf("verify stage ran %d times, want %d", b.Stats.Stage(StageVerify).Count, sets)
	}
}

// TestVerifyRejectionDegrades: an injected verify-stage failure degrades the
// request onto the fallback — which itself passes the verifier — instead of
// failing it, and bumps the rejected counter.
func TestVerifyRejectionDegrades(t *testing.T) {
	hook := func(stage, name string) error {
		if stage == StageVerify {
			return errors.New("synthetic verifier rejection")
		}
		return nil
	}
	b := run(t, []string{fig1, fig1}, Options{Compile: passes.Options{Backend: "best"}, FaultHook: hook, Metrics: NewMetrics()})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for _, lr := range b.Loops {
		mr := lr.Machines[0]
		if !mr.Degraded || !strings.Contains(mr.DegradedReason, "synthetic verifier rejection") {
			t.Fatalf("%s not degraded by the verify stage: %+q", lr.Name, mr.DegradedReason)
		}
		if mr.List != mr.Sync {
			t.Errorf("%s: degraded result not served by the single fallback", lr.Name)
		}
		if l := check.Verify(mr.Sync); check.Err(l) != nil {
			t.Errorf("%s: served fallback fails the verifier:\n%s", lr.Name, l)
		}
		if mr.SyncTime <= 0 {
			t.Errorf("%s: fallback not simulated: SyncTime = %d", lr.Name, mr.SyncTime)
		}
	}
	if b.Stats.Rejected != int64(len(b.Loops)) {
		t.Errorf("rejected = %d, want %d", b.Stats.Rejected, len(b.Loops))
	}
	if b.Stats.Fallbacks != int64(len(b.Loops)) {
		t.Errorf("fallbacks = %d, want %d", b.Stats.Fallbacks, len(b.Loops))
	}
	if b.Stats.Verified != 0 {
		t.Errorf("verified = %d when every set was rejected, want 0", b.Stats.Verified)
	}
}

// TestVerifyRejectedNotCached: a rejected schedule set is never published —
// the next batch over the same cache recomputes and serves the real,
// verified schedules.
func TestVerifyRejectedNotCached(t *testing.T) {
	cache := NewCache()
	hook := func(stage, name string) error {
		if stage == StageVerify {
			return errors.New("transient verifier rejection")
		}
		return nil
	}
	b1, err := Run([]Request{{Source: fig1}}, Options{Cache: cache, FaultHook: hook})
	if err != nil {
		t.Fatal(err)
	}
	if !b1.Loops[0].Degraded() {
		t.Fatal("first batch not degraded")
	}
	b2, err := Run([]Request{{Source: fig1}}, Options{Cache: cache})
	if err != nil {
		t.Fatal(err)
	}
	lr := b2.Loops[0]
	if lr.Err != nil {
		t.Fatal(lr.Err)
	}
	if lr.Degraded() {
		t.Error("rejected entry leaked through the cache")
	}
	if n := b2.Stats.Stage(StageSchedule).Count; n != 1 {
		t.Errorf("second batch ran schedule %d times, want 1 (recompute after rejection)", n)
	}
}

// TestLintFindingsSurfaced: loops whose synchronization placement the linter
// flags carry the findings on the result, and the counter sums them across
// fresh compilations only.
func TestLintFindingsSurfaced(t *testing.T) {
	// The compiler-inserted sync of these corpus loops is clean; an explicit
	// DOACROSS with a dead send and an always-satisfied wait is not.
	messy := `DOACROSS I = 1, N
  Send_Signal(S1)
  S1: A[I] = A[I-1] + 1
  Wait_Signal(S1, I-1)
  S2: B[I] = A[I] * 2
ENDDO`
	cache := NewCache()
	b := run(t, []string{fig1, messy}, Options{Cache: cache, Metrics: NewMetrics()})
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if len(b.Loops[0].Lint) != 0 {
		t.Errorf("clean loop carries lint findings:\n%s", b.Loops[0].Lint)
	}
	if len(b.Loops[1].Lint) == 0 {
		t.Error("messy loop carries no lint findings")
	}
	if want := int64(len(b.Loops[1].Lint)); b.Stats.LintFindings != want {
		t.Errorf("lint counter = %d, want %d", b.Stats.LintFindings, want)
	}
	// A cache hit shares the findings without recounting them.
	b2 := run(t, []string{messy}, Options{Cache: cache, Metrics: NewMetrics()})
	if len(b2.Loops[0].Lint) == 0 {
		t.Error("cached compilation lost its lint findings")
	}
	if b2.Stats.LintFindings != 0 {
		t.Errorf("cache hit recounted %d lint findings", b2.Stats.LintFindings)
	}
}

// TestVerifierNotCached: the verifier's derived edges live as long as the
// request or load pass that derived them. No cache entry type has a field
// that could retain them, so the cache's resident size is unchanged by
// edge sharing.
func TestVerifierNotCached(t *testing.T) {
	banned := map[reflect.Type]bool{
		reflect.TypeOf((*check.Verifier)(nil)): true,
		reflect.TypeOf(check.Verifier{}):       true,
		reflect.TypeOf([]check.Edge(nil)):      true,
	}
	for _, entry := range []any{compileEntry{}, schedEntry{}, timeEntry{}} {
		typ := reflect.TypeOf(entry)
		for i := 0; i < typ.NumField(); i++ {
			if f := typ.Field(i); banned[f.Type] {
				t.Errorf("%s.%s (%s) retains verifier state in the cache", typ.Name(), f.Name, f.Type)
			}
		}
	}
}
