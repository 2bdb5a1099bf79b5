// Package sim is the multiprocessor DOACROSS simulator (the paper's §4.1
// statistical model backend): n iterations of a scheduled loop run on a
// shared-memory multiprocessor, one iteration per superscalar processor,
// synchronized through a shared signal vector.
//
// Time is the timing model. Each processor issues schedule rows in order,
// one row per cycle; a row containing Wait_Signal(S, i−d) cannot issue
// before iteration i−d's Send_Signal(S) has issued and become visible (one
// cycle later), and under a bounded signal window a send cannot issue before
// every consumer of the slot it overwrites has issued.
//
// Run executes the loop on that timing: it replays every row's instructions
// against a shared memory store at the cycle Time says the row issues. Its
// final memory is compared against sequential execution by the differential
// tests, which is the strongest evidence that scheduling plus
// synchronization preserved the loop's meaning.
//
// Fewer processors than iterations are supported (blocked cyclic
// assignment: processor p runs iterations p, p+P, ...), defaulting to the
// paper's assumption of n processors for n iterations.
package sim

import (
	"fmt"

	"doacross/internal/core"
	"doacross/internal/lang"
	"doacross/internal/tac"
)

// Options configures a simulation.
type Options struct {
	// Lo and Hi are the iteration bounds (inclusive). Hi < Lo means a
	// zero-trip loop.
	Lo, Hi int
	// Procs is the processor count; 0 means one processor per iteration.
	Procs int
	// Window bounds the synchronization hardware: each signal has Window
	// slots, and slot (i mod Window) cannot be overwritten by iteration i's
	// send until every wait consuming iteration i-Window's signal has
	// executed (the bounded signal buffers of the Zhu/Yew and Su/Yew schemes
	// the paper cites). 0 means unbounded (one slot per iteration, the
	// paper's idealized assumption). A window smaller than the largest
	// dependence distance deadlocks and is reported as an error.
	Window int
	// MaxCycles, when positive, is a hard cycle budget: if any row would
	// issue after cycle MaxCycles, Time and Run return a budget-exhausted
	// error naming the blocked iterations. 0 means no budget; the
	// simulation always terminates, since every wait and window gate reads
	// an earlier iteration or an earlier row.
	MaxCycles int
	// Tracer, when non-nil, records a cycle-accurate execution trace with
	// stall-cause attribution. Nil costs Time nothing.
	Tracer *Tracer
}

// N returns the trip count.
func (o Options) N() int {
	if o.Hi < o.Lo {
		return 0
	}
	return o.Hi - o.Lo + 1
}

func (o Options) procs() int {
	if o.Procs > 0 {
		return o.Procs
	}
	n := o.N()
	if n == 0 {
		return 1
	}
	return n
}

// Timing is the result of a simulation.
type Timing struct {
	// Total is the parallel execution time in cycles: the cycle after the
	// last instruction of the last iteration completes.
	Total int
	// StallCycles counts cycles lost to synchronization waits, summed over
	// all iterations.
	StallCycles int
	// SignalsSent counts Send_Signal issues over all iterations — the
	// paper-level synchronization traffic (every send issues once per
	// iteration regardless of whether a consumer iteration exists).
	SignalsSent int
	// IterIssue[i] is the issue time of the first row of iteration Lo+i;
	// IterDone[i] the completion time of its last instruction.
	IterIssue, IterDone []int
}

// Time computes the parallel execution time with the recurrence model. Its
// working state (the schedule's synchronization structure in interned CSR
// form plus the iteration ring) is pooled, so steady-state calls allocate
// only the returned per-iteration timing slices.
func Time(s *core.Schedule, opt Options) (Timing, error) {
	sc := timePool.Get().(*timeScratch)
	t, err := sc.run(s, opt)
	timePool.Put(sc)
	return t, err
}

// MustTime is Time for known-good inputs.
func MustTime(s *core.Schedule, opt Options) Timing {
	t, err := Time(s, opt)
	if err != nil {
		panic(err)
	}
	return t
}

// Run executes the scheduled loop against st, which must contain the loop's
// input data (including the bound scalar, e.g. N). The store is mutated in
// place. The timing is Time's: Run traces Time (into opt.Tracer, or a
// private tracer when there is none) and replays the issue cycles it
// recorded.
func Run(s *core.Schedule, st *lang.Store, opt Options) (Timing, error) {
	if opt.Tracer == nil {
		opt.Tracer = &Tracer{}
	}
	t, err := Time(s, opt)
	if err != nil {
		return Timing{}, err
	}
	if err := replay(s, st, opt.Tracer); err != nil {
		return Timing{}, err
	}
	return t, nil
}

// replay executes every row of every traced iteration against st in the
// order a cycle-stepped machine issues them: by issue cycle, then by
// processor index within a cycle. A store is thus visible to every row
// issued after it. Each iteration runs in its own frame. Send and Wait
// execute as no-ops; the synchronization they stand for is already in the
// issue cycles.
func replay(s *core.Schedule, st *lang.Store, tr *Tracer) error {
	n, L := tr.N, tr.Length
	if L == 0 {
		return nil
	}
	// Counting sort of the n·L row issues by cycle. Filling processor by
	// processor keeps processor order within a cycle.
	last := 0
	for i := range tr.Iters {
		last = max(last, int(tr.Iters[i].Rows[L-1]))
	}
	at := make([]int, last+2)
	for i := range tr.Iters {
		for _, c := range tr.Iters[i].Rows {
			at[c+1]++
		}
	}
	for c := 1; c < len(at); c++ {
		at[c] += at[c-1]
	}
	order := make([]int, n*L)
	for p := 0; p < tr.Procs; p++ {
		for i := p; i < n; i += tr.Procs {
			for r, c := range tr.Iters[i].Rows {
				order[at[c]] = i*L + r
				at[c]++
			}
		}
	}
	frames := make([]*tac.Frame, n)
	for _, k := range order {
		i, r := k/L, k%L
		if r == 0 {
			frames[i] = tac.NewFrame(s.Prog.NumTemps, tr.Lo+i)
		}
		for _, v := range s.Rows[r] {
			in := s.Prog.Instrs[v]
			if err := tac.Exec(in, frames[i], st); err != nil {
				return fmt.Errorf("sim: iteration %d instr %d: %w", tr.Lo+i, in.ID, err)
			}
		}
	}
	return nil
}
