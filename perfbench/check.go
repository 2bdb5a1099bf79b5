package main

import (
	"encoding/hex"
	"fmt"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/pipeline"
	"doacross/internal/server"
	"doacross/internal/sim"
)

// answer is the observable outcome of one (loop, N, machine) triple: what
// the library returns and what scheduld must serve for the same problem.
type answer struct {
	Machine     string
	Key         dfg.Fingerprint
	Backend     string
	ListTime    int
	SyncTime    int
	PredictedT  int
	SyncSignals int
	StallCycles int
	Degraded    bool
}

func libAnswer(mr *pipeline.MachineResult) answer {
	return answer{
		Machine: mr.Machine, Key: mr.Key, Backend: mr.Backend,
		ListTime: mr.ListTime, SyncTime: mr.SyncTime, PredictedT: mr.PredictedT,
		SyncSignals: mr.SyncSignals, StallCycles: mr.SyncStalls, Degraded: mr.Degraded,
	}
}

func httpAnswer(mr *server.MachineResult) answer {
	a := answer{
		Machine: mr.Machine, Backend: mr.Backend,
		ListTime: mr.ListTime, SyncTime: mr.SyncTime, PredictedT: mr.PredictedT,
		SyncSignals: mr.SyncSignals, StallCycles: mr.StallCycles, Degraded: mr.Degraded,
	}
	// A malformed key leaves a zero fingerprint, which matches no answer.
	if len(mr.Key) == hex.EncodedLen(len(a.Key)) {
		_, _ = hex.Decode(a.Key[:], []byte(mr.Key))
	}
	return a
}

// libAnswers returns one loop result's answers, or an error when the loop
// failed.
func libAnswers(r *pipeline.LoopResult) ([]answer, error) {
	if r.Err != nil {
		return nil, r.Err
	}
	out := make([]answer, len(r.Machines))
	for i := range r.Machines {
		out[i] = libAnswer(&r.Machines[i])
	}
	return out, nil
}

// sameAnswers compares served answers against the library's.
func sameAnswers(got, want []answer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d machine results, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			return fmt.Errorf("machine %s: served %+v, library %+v", want[i].Machine, got[i], want[i])
		}
	}
	return nil
}

// verifySchedules runs the independent verifier over every schedule a loop
// result serves.
func verifySchedules(r *pipeline.LoopResult) error {
	for i := range r.Machines {
		mr := &r.Machines[i]
		for _, s := range []*core.Schedule{mr.List, mr.Sync} {
			if err := check.Err(check.Verify(s)); err != nil {
				return fmt.Errorf("%s on %s: %w", r.Name, mr.Machine, err)
			}
		}
	}
	return nil
}

// memCheck executes the served synchronization-aware schedule on the
// detailed simulator against seeded memory and compares the final memory
// with the sequential interpreter's.
func memCheck(r *pipeline.LoopResult, seed uint64) error {
	loop := r.Loop
	seq := loop.SeedStore(paperN, 24, seed)
	lo, hi, err := loop.Bounds(seq)
	if err != nil {
		return fmt.Errorf("%s: bounds: %w", r.Name, err)
	}
	want := seq.Clone()
	if err := loop.Run(want); err != nil {
		return fmt.Errorf("%s: interpreter: %w", r.Name, err)
	}
	for i := range r.Machines {
		mr := &r.Machines[i]
		got := seq.Clone()
		if _, err := sim.Run(mr.Sync, got, sim.Options{Lo: lo, Hi: hi}); err != nil {
			return fmt.Errorf("%s on %s: simulator: %w", r.Name, mr.Machine, err)
		}
		if d := want.Diff(got); d != "" {
			return fmt.Errorf("%s on %s: simulated memory differs from the interpreter: %s", r.Name, mr.Machine, d)
		}
	}
	return nil
}

// memSample is how many loops each workload memory-checks.
const memSample = 12

// memCheckSample memory-checks a seeded sample of up to k loop results.
func (b *bench) memCheckSample(loops []pipeline.LoopResult, k int) {
	if len(loops) == 0 {
		return
	}
	step := len(loops) / k
	if step < 1 {
		step = 1
	}
	start := int(mix(b.seed^0x3e3) % uint64(step))
	checked := 0
	for i := start; i < len(loops) && checked < k; i += step {
		if loops[i].Err != nil {
			continue
		}
		if err := memCheck(&loops[i], b.seed); err != nil {
			b.fail("memory check: %v", err)
		}
		checked++
	}
	info("memory check: %d loops x %d machines against the sequential interpreter", checked, len(loops[0].Machines))
}
