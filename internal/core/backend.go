package core

import (
	"doacross/internal/dfg"
	"doacross/internal/dlx"
)

// Outcome is what a scheduling backend returns: the schedule plus the
// optimality evidence an exact backend can attach. Heuristic backends leave
// Optimal false and LowerBound 0 (no bound proven); the branch-and-bound
// backend (internal/exact) fills every field.
type Outcome struct {
	// Schedule is the issue assignment the backend produced.
	Schedule *Schedule
	// T is the backend's objective value of Schedule — the paper's
	// T = (n/d)(i−j) + l predicted parallel time at the backend's reference
	// trip count (0 when the backend does not evaluate an objective).
	T int
	// Optimal reports that T is proven minimal over all feasible schedules
	// for the backend's objective. Heuristics never set it.
	Optimal bool
	// LowerBound is a proven lower bound on the optimal objective value
	// (0 = no bound proven). When Optimal, LowerBound == T.
	LowerBound int
	// Nodes counts backend search nodes expanded (0 for heuristics).
	Nodes int64
	// Note carries a human-readable qualification of the result, e.g. the
	// budget-exhaustion diagnostic of an anytime exact search.
	Note string
}

// Scheduler is the pluggable backend seam: the paper's Sig/Wat/Sigwat
// heuristic, the list baselines, the never-degrades Best pick and the exact
// branch-and-bound solver (internal/exact) all implement it, so every
// consumer — the facade, the batch pipeline, the CLIs and the conformance
// suite — schedules through one interface. Implementations must be
// deterministic (same graph + machine in, same schedule out) and safe for
// concurrent use.
type Scheduler interface {
	// Name identifies the backend ("sync", "list", "order", "best",
	// "exact") in results, cache salts and reports.
	Name() string
	// Schedule builds a schedule for one iteration of the graph's loop on
	// the machine. The returned schedule must pass Schedule.Validate; the
	// callers additionally run it through the independent verifier
	// (internal/check) before publication.
	Schedule(g *dfg.Graph, cfg dlx.Config) (*Outcome, error)
}

// ScratchScheduler is implemented by backends whose steady state can run
// allocation-free over caller-owned scratch state. The returned schedule is
// BORROWED from sc — its storage is recycled by sc's next scheduling call —
// so callers must Clone before retaining or publishing it. The batch
// pipeline type-asserts this interface and threads one Scratch per worker.
type ScratchScheduler interface {
	Scheduler
	// ScheduleScratch is Schedule without the Outcome wrapper, scheduling
	// into sc's reusable buffers.
	ScheduleScratch(sc *Scratch, g *dfg.Graph, cfg dlx.Config) (*Schedule, error)
}

// SyncScheduler is the paper's synchronization-aware heuristic behind the
// Scheduler seam.
type SyncScheduler struct{}

// Name implements Scheduler.
func (SyncScheduler) Name() string { return "sync" }

// Schedule implements Scheduler.
func (SyncScheduler) Schedule(g *dfg.Graph, cfg dlx.Config) (*Outcome, error) {
	s, err := Sync(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Outcome{Schedule: s}, nil
}

// ScheduleScratch implements ScratchScheduler.
func (SyncScheduler) ScheduleScratch(sc *Scratch, g *dfg.Graph, cfg dlx.Config) (*Schedule, error) {
	return sc.Sync(g, cfg)
}

// ListScheduler is the baseline list scheduler behind the Scheduler seam.
type ListScheduler struct {
	// Priority is the tie-breaking rule (CriticalPath or ProgramOrder).
	Priority ListPriority
}

// Name implements Scheduler.
func (b ListScheduler) Name() string {
	if b.Priority == ProgramOrder {
		return "order"
	}
	return "list"
}

// Schedule implements Scheduler.
func (b ListScheduler) Schedule(g *dfg.Graph, cfg dlx.Config) (*Outcome, error) {
	s, err := List(g, cfg, b.Priority)
	if err != nil {
		return nil, err
	}
	return &Outcome{Schedule: s}, nil
}

// ScheduleScratch implements ScratchScheduler.
func (b ListScheduler) ScheduleScratch(sc *Scratch, g *dfg.Graph, cfg dlx.Config) (*Schedule, error) {
	return sc.List(g, cfg, b.Priority)
}

// BestScheduler is the never-degrades pick (sync vs both list baselines)
// behind the Scheduler seam.
type BestScheduler struct{}

// Name implements Scheduler.
func (BestScheduler) Name() string { return "best" }

// Schedule implements Scheduler.
func (BestScheduler) Schedule(g *dfg.Graph, cfg dlx.Config) (*Outcome, error) {
	s, err := Best(g, cfg)
	if err != nil {
		return nil, err
	}
	return &Outcome{Schedule: s}, nil
}

// ScheduleScratch implements ScratchScheduler.
func (BestScheduler) ScheduleScratch(sc *Scratch, g *dfg.Graph, cfg dlx.Config) (*Schedule, error) {
	return sc.Best(g, cfg)
}
