package faults

import (
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"
)

// names returns n distinct probe names.
func names(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = fmt.Sprintf("loop%d", i)
	}
	return out
}

// TestDecideDeterministic is the injector's core contract: decisions are a
// pure function of (seed, stage, name), so two injectors built from the same
// plan agree on every probe site, in any order.
func TestDecideDeterministic(t *testing.T) {
	plan := Plan{Seed: 1997, Error: 0.2, Panic: 0.1, Delay: 0.1, Corrupt: 0.1, Budget: 0.1}
	a := MustNew(plan)
	b := MustNew(plan)
	stages := []string{StageCompile, StageSchedule, StageSimulate, StageCache, "parse", "codegen"}
	fired := 0
	for _, stage := range stages {
		for _, name := range names(200) {
			ka, oka := a.Decide(stage, name)
			kb, okb := b.Decide(stage, name)
			if ka != kb || oka != okb {
				t.Fatalf("Decide(%s, %s) diverges: (%v,%v) vs (%v,%v)", stage, name, ka, oka, kb, okb)
			}
			if oka {
				fired++
			}
		}
	}
	if fired == 0 {
		t.Fatal("plan with 60% total rate fired nothing over 1200 sites")
	}
}

// TestSeedChangesPattern: different seeds select different fault patterns.
func TestSeedChangesPattern(t *testing.T) {
	a := MustNew(Plan{Seed: 1, Error: 0.5})
	b := MustNew(Plan{Seed: 2, Error: 0.5})
	same := 0
	for _, name := range names(400) {
		_, oka := a.Decide(StageSchedule, name)
		_, okb := b.Decide(StageSchedule, name)
		if oka == okb {
			same++
		}
	}
	if same == 400 {
		t.Error("seeds 1 and 2 produced identical fault patterns over 400 sites")
	}
}

// TestRateOversubscriptionRejected: kind probabilities partition one hash
// space, so their sum must not exceed 1.
func TestRateOversubscriptionRejected(t *testing.T) {
	if _, err := New(Plan{Error: 0.7, Panic: 0.7}); err == nil {
		t.Error("oversubscribed plan accepted")
	}
	if _, err := New(Plan{Error: 1.0}); err != nil {
		t.Errorf("fully subscribed plan rejected: %v", err)
	}
	// Negative rates clamp to zero instead of poisoning the partition.
	in := MustNew(Plan{Error: -5})
	for _, name := range names(100) {
		if _, ok := in.Decide(StageCompile, name); ok {
			t.Fatal("negative rate fired")
		}
	}
}

// TestStageGating: Corrupt only makes sense at a cache probe and Budget only
// at a simulate probe; everywhere else those slots of the hash space fire
// nothing.
func TestStageGating(t *testing.T) {
	in := MustNew(Plan{Error: 0, Corrupt: 0.5, Budget: 0.5})
	corrupts, budgets := 0, 0
	for _, name := range names(300) {
		for _, stage := range []string{StageCompile, StageSchedule, StageSimulate, StageCache, StageFallback, "parse"} {
			k, ok := in.Decide(stage, name)
			if !ok {
				continue
			}
			switch k {
			case Corrupt:
				if stage != StageCache {
					t.Fatalf("Corrupt fired at %s", stage)
				}
				corrupts++
			case Budget:
				if stage != StageSimulate {
					t.Fatalf("Budget fired at %s", stage)
				}
				budgets++
			default:
				t.Fatalf("unplanned kind %v fired", k)
			}
		}
	}
	if corrupts == 0 || budgets == 0 {
		t.Errorf("gated kinds never fired where they are allowed: corrupts=%d budgets=%d", corrupts, budgets)
	}
}

// TestStagesFilter: Plan.Stages restricts injection to the named stages.
func TestStagesFilter(t *testing.T) {
	in := MustNew(Plan{Error: 1, Stages: []string{StageSchedule}})
	if _, ok := in.Decide(StageCompile, "x"); ok {
		t.Error("filtered stage fired")
	}
	if _, ok := in.Decide(StageSchedule, "x"); !ok {
		t.Error("allowed stage did not fire")
	}
}

// TestProbeBehaviors: Error-kind probes return *Injected, Panic-kind probes
// panic with one, Delay-kind probes sleep and return nil; every firing is
// counted.
func TestProbeBehaviors(t *testing.T) {
	in := MustNew(Plan{Error: 1})
	err := in.Probe(StageCompile, "loop0")
	inj, ok := IsInjected(err)
	if !ok {
		t.Fatalf("Probe returned %v, want *Injected", err)
	}
	if inj.Kind != Error || inj.Stage != StageCompile || inj.Name != "loop0" {
		t.Errorf("injected fault = %+v", inj)
	}
	if !strings.Contains(err.Error(), "injected error") {
		t.Errorf("error text = %q", err)
	}

	pin := MustNew(Plan{Panic: 1})
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("Panic-kind probe did not panic")
			}
			if _, ok := r.(*Injected); !ok {
				t.Fatalf("panicked with %T, want *Injected", r)
			}
		}()
		pin.Probe(StageSchedule, "loop0")
	}()

	din := MustNew(Plan{Delay: 1, DelayFor: 5 * time.Millisecond})
	start := time.Now()
	if err := din.Probe(StageSimulate, "loop0"); err != nil {
		t.Errorf("Delay probe returned %v", err)
	}
	if d := time.Since(start); d < 5*time.Millisecond {
		t.Errorf("Delay probe slept %v, want >= 5ms", d)
	}

	c := in.Counts()
	if c.Errors != 1 || c.Total() != 1 {
		t.Errorf("error injector counts = %s", c)
	}
	if c := pin.Counts(); c.Panics != 1 {
		t.Errorf("panic injector counts = %s", c)
	}
	if c := din.Counts(); c.Delays != 1 {
		t.Errorf("delay injector counts = %s", c)
	}
	if s := c.String(); !strings.Contains(s, "errors=1") {
		t.Errorf("counts render = %q", s)
	}
}

// TestIsInjectedThroughWrapping: the pipeline wraps injected errors with
// request context; IsInjected must still see them.
func TestIsInjectedThroughWrapping(t *testing.T) {
	in := MustNew(Plan{Error: 1})
	wrapped := fmt.Errorf("pipeline: compile loop0: %w", in.Probe(StageCompile, "loop0"))
	if _, ok := IsInjected(wrapped); !ok {
		t.Error("wrapped injected error not recognized")
	}
	if _, ok := IsInjected(errors.New("organic")); ok {
		t.Error("organic error claimed as injected")
	}
}

// TestKindString pins the kind names used in error text and logs.
func TestKindString(t *testing.T) {
	want := map[Kind]string{Error: "error", Panic: "panic", Delay: "delay", Corrupt: "corrupt", Budget: "budget"}
	for k, s := range want {
		if k.String() != s {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), k.String(), s)
		}
	}
}
