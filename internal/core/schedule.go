// Package core implements the paper's contribution (§3.2): instruction
// scheduling for a superscalar-based multiprocessor executing DOACROSS
// loops. It provides
//
//   - List: classic resource-constrained list scheduling (the baseline the
//     paper compares against), which freely hoists Wait_Signals because they
//     have no data predecessors, and
//   - Sync: the new synchronization-aware scheduler, which converts
//     cross-component synchronization pairs to LFD (Sig graphs before, Wat
//     graphs after, all Sigwat graphs) and squeezes unavoidable LBDs to the
//     length of their synchronization path by scheduling SP nodes
//     contiguously, paths in descending (n/d)·|SP| order.
//
// Both schedulers respect the synchronization conditions by construction:
// they schedule over the dfg graph whose src→send and wait→snk arcs encode
// them.
package core

import (
	"fmt"
	"strings"

	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/tac"
)

// Schedule is a cycle-by-cycle issue assignment for one iteration's body.
type Schedule struct {
	Prog  *tac.Program
	Graph *dfg.Graph
	Cfg   dlx.Config
	// Cycle[node] is the 0-based issue cycle of each instruction.
	Cycle []int
	// Rows[c] lists the nodes issued at cycle c, in issue order.
	Rows [][]int
	// Method names the scheduler that produced this schedule.
	Method string
	// scratch, when non-nil, marks the Cycle/Rows storage as borrowed from a
	// Scratch buffer (recycled by that Scratch's next scheduling call). Clone
	// detaches; the package-level entry points always return detached
	// schedules.
	scratch *schedBuf
}

// Clone returns a deep copy of the schedule whose Cycle and Rows storage is
// owned by the caller (detached from any Scratch buffer). The Prog/Graph
// references are shared: both are immutable after construction.
func (s *Schedule) Clone() *Schedule {
	c := *s
	c.scratch = nil
	c.Cycle = append([]int(nil), s.Cycle...)
	total := 0
	for _, r := range s.Rows {
		total += len(r)
	}
	flat := make([]int, 0, total)
	c.Rows = make([][]int, len(s.Rows))
	for i, r := range s.Rows {
		if len(r) == 0 {
			c.Rows[i] = r // preserve nil-ness of empty rows
			continue
		}
		off := len(flat)
		flat = append(flat, r...)
		c.Rows[i] = flat[off:len(flat):len(flat)]
	}
	return &c
}

// Length returns the number of issue cycles (the paper's l, the instruction
// count of one scheduled iteration).
func (s *Schedule) Length() int { return len(s.Rows) }

// CompletionLength returns the cycle count until every instruction has
// completed (issue length plus trailing latency of the last finishers).
func (s *Schedule) CompletionLength() int {
	end := 0
	for v, c := range s.Cycle {
		fin := c + s.latency(v)
		if fin > end {
			end = fin
		}
	}
	return end
}

func (s *Schedule) latency(node int) int {
	return s.Cfg.Latency[s.Prog.Instrs[node].Class()]
}

// Occupancy returns, per function-unit class, the number of units busy in
// every cycle up to CompletionLength. Units are not pipelined — an
// instruction holds its unit for its full latency — matching Validate's
// resource model. Classes that need no unit (synchronization) are absent.
// The simulator's tracer uses it for empty-slot attribution.
func (s *Schedule) Occupancy() map[dlx.Class][]int {
	occupancy := map[dlx.Class][]int{}
	horizon := s.CompletionLength()
	for v := range s.Cycle {
		cls := s.Prog.Instrs[v].Class()
		if !dlx.NeedsUnit(cls) {
			continue
		}
		occ := occupancy[cls]
		if occ == nil {
			occ = make([]int, horizon)
			occupancy[cls] = occ
		}
		for c := s.Cycle[v]; c < s.Cycle[v]+s.latency(v); c++ {
			occ[c]++
		}
	}
	return occupancy
}

// PairSpan describes one synchronization pair's placement in the schedule.
type PairSpan struct {
	Signal string
	// Distance is the dependence distance d.
	Distance int
	// WaitCycle and SendCycle are issue cycles (j and i in the paper's
	// formula, measured in cycles rather than instruction positions).
	WaitCycle, SendCycle int
	// WaitNode and SendNode are the instruction indices.
	WaitNode, SendNode int
}

// LBD reports whether the pair remains lexically backward in the schedule:
// the send is not issued strictly before the wait.
func (p PairSpan) LBD() bool { return p.SendCycle >= p.WaitCycle }

// Span is i−j, the send-to-wait distance in cycles; only meaningful for LBD
// pairs (positive or zero).
func (p PairSpan) Span() int { return p.SendCycle - p.WaitCycle }

// PairSpans returns the placement of every synchronization pair, ordered by
// wait node index.
func (s *Schedule) PairSpans() []PairSpan {
	return s.PairSpansAppend(nil)
}

// PairSpansAppend appends the placement of every synchronization pair to dst
// and returns the extended slice — the allocation-free form of PairSpans for
// callers with a reusable buffer.
func (s *Schedule) PairSpansAppend(dst []PairSpan) []PairSpan {
	for v, in := range s.Prog.Instrs {
		if in.Op != tac.Wait {
			continue
		}
		send := s.Prog.SendFor(in.Signal)
		if send == nil {
			continue
		}
		dst = append(dst, PairSpan{
			Signal:    in.Signal,
			Distance:  in.SigDist,
			WaitCycle: s.Cycle[v],
			SendCycle: s.Cycle[send.ID-1],
			WaitNode:  v,
			SendNode:  send.ID - 1,
		})
	}
	return dst
}

// NumLBD returns the number of synchronization pairs that remain LBD.
func (s *Schedule) NumLBD() int {
	n := 0
	var buf [16]PairSpan
	for _, p := range s.PairSpansAppend(buf[:0]) {
		if p.LBD() {
			n++
		}
	}
	return n
}

// MaxLBDStall returns the worst per-iteration pipeline recurrence
// (n/d)·span over the remaining LBD pairs, normalized per iteration:
// max(span/d). This is the slope of the parallel execution time in n.
func (s *Schedule) MaxLBDStall() float64 {
	worst := 0.0
	var buf [16]PairSpan
	for _, p := range s.PairSpansAppend(buf[:0]) {
		if !p.LBD() {
			continue
		}
		// The iteration-to-iteration recurrence advances d iterations per
		// span cycles (+1 cycle for the send to become visible).
		v := float64(p.Span()+1) / float64(p.Distance)
		if v > worst {
			worst = v
		}
	}
	return worst
}

// Validate checks that the schedule is well formed: every node scheduled
// exactly once, dependence arcs respected with latencies, issue width and
// function-unit capacity never exceeded, and the synchronization conditions
// hold (they follow from the graph arcs, but Validate re-checks them
// directly as a second line of defense).
func (s *Schedule) Validate() error {
	n := s.Graph.N()
	if len(s.Cycle) != n {
		return fmt.Errorf("core: schedule covers %d of %d nodes", len(s.Cycle), n)
	}
	seen := make([]bool, n)
	for c, row := range s.Rows {
		if len(row) > s.Cfg.Issue {
			return fmt.Errorf("core: cycle %d issues %d > width %d", c, len(row), s.Cfg.Issue)
		}
		for _, v := range row {
			if seen[v] {
				return fmt.Errorf("core: node %d scheduled twice", v)
			}
			seen[v] = true
			if s.Cycle[v] != c {
				return fmt.Errorf("core: node %d cycle mismatch (%d vs row %d)", v, s.Cycle[v], c)
			}
		}
	}
	for v := 0; v < n; v++ {
		if !seen[v] {
			return fmt.Errorf("core: node %d (instr %v) not scheduled", v, s.Prog.Instrs[v])
		}
	}
	// Dependence + latency.
	for _, a := range s.Graph.Arcs {
		if s.Cycle[a.To] < s.Cycle[a.From]+s.latency(a.From) {
			return fmt.Errorf("core: arc %v violated: %d -> %d with latency %d",
				a, s.Cycle[a.From], s.Cycle[a.To], s.latency(a.From))
		}
	}
	// Function-unit occupancy (units are not pipelined: an instruction holds
	// its unit for its full latency), counted in one class-major array and
	// scanned in (class, cycle) order, so the first oversubscription is the
	// one reported. The synchronization conditions are arcs, checked above.
	horizon := s.CompletionLength()
	occ := make([]int, int(dlx.NumClasses)*horizon)
	for v, c := range s.Cycle {
		if cls := s.Prog.Instrs[v].Class(); dlx.NeedsUnit(cls) {
			row := occ[int(cls)*horizon:]
			for t := c; t < c+s.latency(v); t++ {
				row[t]++
			}
		}
	}
	for i, busy := range occ {
		if cls := dlx.Class(i / horizon); busy > s.Cfg.Units[cls] {
			return fmt.Errorf("core: cycle %d oversubscribes %s units (%d > %d)",
				i%horizon, cls, busy, s.Cfg.Units[cls])
		}
	}
	return nil
}

// MaxLive returns the peak number of simultaneously live temps in the
// schedule: a temp is live from its defining instruction's issue until its
// last consumer issues. This is the register-pressure cost of a schedule —
// the tension with scheduling freedom that the paper's reference [7]
// (Goodman & Hsu) studies. Both schedulers can trade pressure for span;
// the report tables expose the trade.
func (s *Schedule) MaxLive() int {
	lastUse := map[int]int{} // temp -> last issue cycle of a consumer
	defAt := map[int]int{}
	for v, in := range s.Prog.Instrs {
		if in.Dst != 0 {
			defAt[in.Dst] = s.Cycle[v]
		}
		for _, t := range in.Uses() {
			if s.Cycle[v] > lastUse[t] {
				lastUse[t] = s.Cycle[v]
			}
		}
	}
	// Sweep cycles counting live intervals [def, lastUse].
	horizon := s.Length()
	delta := make([]int, horizon+2)
	for t, d := range defAt {
		end, used := lastUse[t]
		if !used {
			end = d // dead value: live for its def cycle only
		}
		delta[d]++
		if end+1 <= horizon+1 {
			delta[end+1]--
		}
	}
	live, peak := 0, 0
	for c := 0; c <= horizon; c++ {
		live += delta[c]
		if live > peak {
			peak = live
		}
	}
	return peak
}

// String renders the schedule in the paper's Fig. 4 style: one line per
// cycle listing issued instruction IDs, dashes for empty slots.
func (s *Schedule) String() string {
	var sb strings.Builder
	for _, row := range s.Rows {
		parts := make([]string, 0, s.Cfg.Issue)
		for _, v := range row {
			parts = append(parts, fmt.Sprintf("%d", s.Prog.Instrs[v].ID))
		}
		for len(parts) < s.Cfg.Issue {
			parts = append(parts, "-")
		}
		fmt.Fprintf(&sb, "(%s)\n", strings.Join(parts, ", "))
	}
	return sb.String()
}

// Listing renders the schedule with full instruction text per row.
func (s *Schedule) Listing() string {
	var sb strings.Builder
	for c, row := range s.Rows {
		fmt.Fprintf(&sb, "cycle %3d:", c)
		for _, v := range row {
			fmt.Fprintf(&sb, "  [%d] %s", s.Prog.Instrs[v].ID, s.Prog.Instrs[v])
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Order returns the instructions in issue order (row by row, left to right).
func (s *Schedule) Order() []*tac.Instr {
	out := make([]*tac.Instr, 0, len(s.Cycle))
	for _, row := range s.Rows {
		for _, v := range row {
			out = append(out, s.Prog.Instrs[v])
		}
	}
	return out
}

// The shared resource-constrained cycle engine lives in scratch.go: it runs
// entirely over reusable Scratch state (merged CSR successors, per-class
// occupancy slices, a statically prioritized live list) and the package-level
// Sync/List/Best entry points below borrow a pooled Scratch and Clone the
// result.
