// Package check is the static verification layer: a translation validator
// for schedules and a synchronization linter for DOACROSS sources.
//
// The verifier follows the translation-validation discipline: instead of
// trusting the dependence graph the schedulers consumed (internal/dfg), it
// re-derives its own dependence edges directly from the three-address code
// and the dependence analysis, and then checks a core.Schedule against
// them — intra-iteration data dependences with latencies, the paper's two
// synchronization conditions (a Send never precedes its source store, a
// Wait never follows its sink), issue-width and function-unit feasibility,
// cross-iteration deadlock freedom over the wait-for graph induced by the
// synchronization arcs and their distances, and agreement of the LBD/LFD
// classification the cost model is built on. A scheduler bug that slips a
// constraint therefore cannot also hide the evidence: the verifier would
// have to share the bug, and it shares no scheduling code.
package check

import (
	"fmt"
	"slices"

	"doacross/internal/bitset"
	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/diag"
	"doacross/internal/dlx"
	"doacross/internal/model"
	"doacross/internal/tac"
)

// Stage is the diagnostic stage name of the verifier.
const Stage = "check"

// EdgeKind classifies an independently derived dependence edge.
type EdgeKind int

// Edge kinds, mirroring the constraint families the schedulers must honor.
const (
	// EdgeData is a register def-use edge.
	EdgeData EdgeKind = iota
	// EdgeMem is a loop-independent (distance-0) memory dependence edge.
	EdgeMem
	// EdgeSrcToSend is synchronization condition 1: source store → send.
	EdgeSrcToSend
	// EdgeWaitToSnk is synchronization condition 2: wait → sink access.
	EdgeWaitToSnk

	numEdgeKinds = iota
)

// String names the edge kind.
func (k EdgeKind) String() string {
	switch k {
	case EdgeData:
		return "data"
	case EdgeMem:
		return "mem"
	case EdgeSrcToSend:
		return "src->send"
	case EdgeWaitToSnk:
		return "wait->snk"
	}
	return fmt.Sprintf("EdgeKind(%d)", int(k))
}

// Edge is one derived dependence edge between instruction indices: To may
// not issue before From's result latency has elapsed.
type Edge struct {
	From, To int
	Kind     EdgeKind
}

// Edges re-derives the dependence edges of a compiled program from first
// principles: register def-use chains from the instruction operands,
// distance-0 memory dependences from the dependence analysis attached to
// the program's synchronized loop, and the two synchronization-condition
// edges for every synchronized dependence. It deliberately does not read
// dfg.Graph.Arcs; the result is the independent ground truth schedules are
// verified against (and internal/dfg is audited against, in the verify
// pass). Edges are listed in first-derivation order, each (From, To, Kind)
// once.
func Edges(p *tac.Program) ([]Edge, error) {
	if p == nil || p.Sync == nil || p.Sync.Analysis == nil {
		return nil, fmt.Errorf("check: program carries no dependence analysis")
	}
	n := len(p.Instrs)
	var out []Edge
	// seen holds one bit per (kind, from, to): a dense matrix, not a map,
	// because every key is a small index. An edge naming an instruction
	// outside the program is recorded in bad and fails the derivation.
	seen := bitset.Make(nil, numEdgeKinds*n*n)
	var bad error
	add := func(from, to int, kind EdgeKind) {
		if from < 0 || from >= n || to < 0 || to >= n {
			if bad == nil {
				bad = fmt.Errorf("check: %s edge %d->%d leaves the program's %d instructions", kind, from+1, to+1, n)
			}
			return
		}
		if from == to {
			// A self-edge cannot constrain a schedule (the builders skip
			// them the same way: a reference pair mapping to one
			// instruction orders itself).
			return
		}
		key := (int(kind)*n+from)*n + to
		if seen.Has(key) {
			return
		}
		seen.Set(key)
		out = append(out, Edge{From: from, To: to, Kind: kind})
	}

	// Register def-use edges. Temps are single-assignment in this IR, so a
	// table indexed by temp number (offset by the lowest one) maps each
	// temp to its defining instruction.
	var useBuf [3]int
	lo, hi := 0, 0
	for _, in := range p.Instrs {
		for _, t := range append(in.AppendUses(useBuf[:0]), in.Dst) {
			lo, hi = min(lo, t), max(hi, t)
		}
	}
	defOf := make([]int, hi-lo+1)
	for t := range defOf {
		defOf[t] = -1
	}
	for i, in := range p.Instrs {
		if in.Dst != 0 {
			if prev := defOf[in.Dst-lo]; prev >= 0 {
				return nil, fmt.Errorf("check: temp t%d defined twice (instrs %d and %d)", in.Dst, prev+1, i+1)
			}
			defOf[in.Dst-lo] = i
		}
	}
	for i, in := range p.Instrs {
		for _, t := range in.AppendUses(useBuf[:0]) {
			d := defOf[t-lo]
			if d < 0 {
				return nil, fmt.Errorf("check: instr %d uses undefined temp t%d", i+1, t)
			}
			if d >= i {
				return nil, fmt.Errorf("check: instr %d uses temp t%d defined later (instr %d)", i+1, t, d+1)
			}
			add(d, i, EdgeData)
		}
	}

	// Distance-0 memory dependence edges from the analysis.
	a := p.Sync.Analysis
	for _, d := range a.Deps {
		if d.Distance != 0 {
			continue
		}
		src, ok1 := refInstr(p, d.Src)
		snk, ok2 := refInstr(p, d.Snk)
		if !ok1 || !ok2 {
			return nil, fmt.Errorf("check: dependence %v has unmapped reference", d)
		}
		add(src.ID-1, snk.ID-1, EdgeMem)
	}

	// Synchronization-condition edges for every synchronized dependence.
	// The waits are indexed once; each dependence then searches only them.
	var waits []int
	if len(p.Sync.Synced) > 0 {
		for i, in := range p.Instrs {
			if in.Op == tac.Wait {
				waits = append(waits, i)
			}
		}
	}
	for _, d := range p.Sync.Synced {
		if d.Src.Stmt < 0 || d.Src.Stmt >= len(p.Sync.Base.Body) {
			return nil, fmt.Errorf("check: synchronized dependence %v has no source statement", d)
		}
		label := p.Sync.Base.Body[d.Src.Stmt].Label
		send := p.SendFor(label)
		if send == nil {
			return nil, fmt.Errorf("check: missing send for signal %s", label)
		}
		srcIn, ok := refInstr(p, d.Src)
		if !ok {
			return nil, fmt.Errorf("check: dependence %v source unmapped", d)
		}
		add(srcIn.ID-1, send.ID-1, EdgeSrcToSend)
		wi, ok := waitIndex(p, waits, d.Snk.Stmt, label, d.Distance)
		if !ok {
			return nil, fmt.Errorf("check: missing wait for %v", d)
		}
		snkIn, ok := refInstr(p, d.Snk)
		if !ok {
			return nil, fmt.Errorf("check: dependence %v sink unmapped", d)
		}
		add(wi, snkIn.ID-1, EdgeWaitToSnk)
	}
	if bad != nil {
		return nil, bad
	}
	return out, nil
}

// refInstr maps a dependence reference to the instruction that performs it.
func refInstr(p *tac.Program, r dep.Ref) (*tac.Instr, bool) {
	if r.Array != nil {
		if r.Merge {
			in, ok := p.MergeLoad[r.Array]
			return in, ok
		}
		in, ok := p.ArrayInstr[r.Array]
		return in, ok
	}
	in, ok := p.ScalarInstr[tac.ScalarKey{Stmt: r.Stmt, Name: r.ScalarName, Write: r.Write}]
	return in, ok
}

// waitIndex finds, among the program's wait instructions (waits, in program
// order), the one of statement stmt for (signal, dist).
func waitIndex(p *tac.Program, waits []int, stmt int, signal string, dist int) (int, bool) {
	for _, i := range waits {
		if in := p.Instrs[i]; in.Stmt == stmt && in.Signal == signal && in.SigDist == dist {
			return i, true
		}
	}
	return 0, false
}

// Err reduces a diagnostic list to its first error, or nil. It is the
// yes/no form of Verify for callers that gate on acceptance.
func Err(l diag.List) error {
	if errs := l.Errors(); len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// Verifier verifies the schedules of one compiled program against what it
// derived from that program once: the dependence edges (Edges) and the
// synchronization instructions with each wait's send resolved. The
// schedules built for one program on every machine thus share one
// derivation instead of repeating it per schedule. A Verifier also holds
// the per-schedule scratch of its checks and reuses it from one schedule to
// the next, so it is not safe for concurrent use. Callers scope it to the
// work over one program (a request, a load pass) rather than caching it
// with the compilation, where it would stay resident for every cached loop.
type Verifier struct {
	prog    *tac.Program
	edges   []Edge
	err     error // the edge derivation's error, reported by Verify
	syncs   syncIndex
	scratch scratch
}

// scratch is the working memory of verifying one schedule. Nothing in it
// carries over from one schedule to the next: every check resizes and
// resets what it uses before reading it.
type scratch struct {
	rowPos []int // each instruction's issue order within its row
	occ    []int // function-unit occupancy, class-major
	arcs   []arc // the wait-for graph of the deadlock check
	bf     []int // the Bellman-Ford distances and predecessors
}

// arc is one weighted wait-for arc between synchronization positions.
type arc struct {
	from, to, w int
}

// ints returns buf resized to n zeroed ints, reallocating only when buf is
// too small.
func ints(buf []int, n int) []int {
	if cap(buf) < n {
		return make([]int, n)
	}
	buf = buf[:n]
	clear(buf)
	return buf
}

// NewVerifier derives what verifying p's schedules needs. A derivation
// error is not returned here: Verify reports it, exactly where a one-shot
// Verify does.
func NewVerifier(p *tac.Program) *Verifier {
	v := &Verifier{prog: p}
	v.edges, v.err = Edges(p)
	if p != nil {
		v.syncs = indexSyncs(p)
	}
	return v
}

// syncIndex lists a program's synchronization instructions for the
// deadlock and LBD checks.
type syncIndex struct {
	// syncs holds the synchronization instruction indices in program order.
	syncs []int
	// pos maps an instruction index to its position in syncs.
	pos []int
	// sendOf holds, per syncs entry, the instruction index of a wait's
	// send: -1 for a send, and for a wait whose signal is never sent.
	sendOf []int
}

func indexSyncs(p *tac.Program) syncIndex {
	k := 0
	for _, in := range p.Instrs {
		if in.IsSync() {
			k++
		}
	}
	slab := make([]int, 2*k+len(p.Instrs))
	x := syncIndex{syncs: slab[:0:k], sendOf: slab[k : 2*k], pos: slab[2*k:]}
	for v, in := range p.Instrs {
		if !in.IsSync() {
			continue
		}
		x.sendOf[len(x.syncs)] = -1
		if in.Op == tac.Wait {
			if send := p.SendFor(in.Signal); send != nil {
				x.sendOf[len(x.syncs)] = send.ID - 1
			}
		}
		x.pos[v] = len(x.syncs)
		x.syncs = append(x.syncs, v)
	}
	return x
}

// Verify statically verifies a schedule against independently derived
// dependence edges. It returns positioned diagnostics (stage "check"); an
// empty Errors() set means the schedule is proven to respect every derived
// intra-iteration dependence with latencies, both synchronization
// conditions, the machine's issue width and function-unit capacities, to
// be free of cross-iteration deadlock, and to agree with the schedule's
// own LBD/LFD accounting. Verify never panics, whatever the schedule's
// shape — it is safe on adversarially mutated inputs.
//
// Verify derives the edges for this one call; a caller verifying several
// schedules of one program uses a Verifier, whose diagnostics are
// identical.
func Verify(s *core.Schedule) diag.List { return verify(s, nil, new(scratch)) }

// Verify is the package-level Verify using the verifier's shared edges
// when s is a schedule of the verifier's program. A schedule of any other
// program is verified against a fresh derivation from its own program.
// Either way the checks run in the verifier's scratch.
func (v *Verifier) Verify(s *core.Schedule) diag.List { return verify(s, v, &v.scratch) }

// verify checks s against v's derivation when s is a schedule of v's
// program, and against a fresh derivation from s.Prog otherwise, working
// in sc.
func verify(s *core.Schedule, v *Verifier, sc *scratch) diag.List {
	var out diag.List
	fail := func(pos diag.Pos, stmt string, format string, args ...any) {
		d := diag.Errorf(Stage, pos, format, args...)
		if stmt != "" {
			d = d.WithStmt(stmt)
		}
		out = append(out, d)
	}
	if s == nil || s.Prog == nil {
		fail(diag.Pos{}, "", "no schedule to verify")
		return out
	}
	if err := s.Cfg.Validate(); err != nil {
		fail(diag.Pos{}, "", "unusable machine configuration: %v", err)
		return out
	}
	n := len(s.Prog.Instrs)
	pos := func(v int) (diag.Pos, string) {
		in := s.Prog.Instrs[v]
		if s.Prog.Sync != nil && in.Stmt >= 0 && in.Stmt < len(s.Prog.Sync.Base.Body) {
			st := s.Prog.Sync.Base.Body[in.Stmt]
			return st.Pos(), st.Label
		}
		return diag.Pos{}, ""
	}

	// Shape: every instruction scheduled exactly once, rows and cycles in
	// agreement, issue width respected. Everything after this section may
	// index by cycle, so a malformed shape returns early.
	if len(s.Cycle) != n {
		fail(diag.Pos{}, "", "schedule covers %d of %d instructions", len(s.Cycle), n)
		return out
	}
	// rowPos is each instruction's issue order within its row, -1 while
	// the instruction has not been seen in any row.
	sc.rowPos = ints(sc.rowPos, n)
	rowPos := sc.rowPos
	for v := range rowPos {
		rowPos[v] = -1
	}
	shapeOK := true
	for c, row := range s.Rows {
		if len(row) > s.Cfg.Issue {
			fail(diag.Pos{}, "", "cycle %d issues %d instructions, width is %d", c, len(row), s.Cfg.Issue)
			shapeOK = false
		}
		for k, v := range row {
			if v < 0 || v >= n {
				fail(diag.Pos{}, "", "cycle %d issues unknown instruction index %d", c, v)
				shapeOK = false
				continue
			}
			if rowPos[v] >= 0 {
				p, st := pos(v)
				fail(p, st, "instruction %d scheduled twice", s.Prog.Instrs[v].ID)
				shapeOK = false
				continue
			}
			rowPos[v] = k
			if s.Cycle[v] != c {
				p, st := pos(v)
				fail(p, st, "instruction %d: cycle %d disagrees with row %d", s.Prog.Instrs[v].ID, s.Cycle[v], c)
				shapeOK = false
			}
		}
	}
	for v := 0; v < n; v++ {
		if rowPos[v] < 0 {
			p, st := pos(v)
			fail(p, st, "instruction %d (%v) never scheduled", s.Prog.Instrs[v].ID, s.Prog.Instrs[v])
			shapeOK = false
		}
	}
	if !shapeOK {
		return out
	}

	lat := func(v int) int { return s.Cfg.Latency[s.Prog.Instrs[v].Class()] }

	// Derived dependence edges with latencies. Synchronization-condition
	// violations get their own message so condition 1 and 2 findings are
	// recognizable.
	if v == nil || v.prog != s.Prog {
		v = NewVerifier(s.Prog)
	}
	if v.err != nil {
		fail(diag.Pos{}, "", "%v", v.err)
		return out
	}
	for _, e := range v.edges {
		if s.Cycle[e.To] >= s.Cycle[e.From]+lat(e.From) {
			continue
		}
		p, st := pos(e.To)
		from, to := s.Prog.Instrs[e.From], s.Prog.Instrs[e.To]
		switch e.Kind {
		case EdgeSrcToSend:
			fail(p, st, "synchronization condition 1 violated: %v (instr %d, cycle %d) precedes its source store (instr %d, cycle %d, latency %d)",
				from, from.ID, s.Cycle[e.To], to.ID, s.Cycle[e.From], lat(e.From))
		case EdgeWaitToSnk:
			fail(p, st, "synchronization condition 2 violated: sink %v (instr %d, cycle %d) precedes %v (instr %d, cycle %d)",
				to, to.ID, s.Cycle[e.To], from, from.ID, s.Cycle[e.From])
		default:
			fail(p, st, "%s dependence violated: instr %d (cycle %d, latency %d) -> instr %d (cycle %d)",
				e.Kind, from.ID, s.Cycle[e.From], lat(e.From), to.ID, s.Cycle[e.To])
		}
	}

	// Function-unit occupancy: units are not pipelined, so an instruction
	// holds a unit of its class for its full latency.
	horizon := 0
	for v := 0; v < n; v++ {
		if end := s.Cycle[v] + lat(v); end > horizon {
			horizon = end
		}
	}
	// occ[cls*horizon+c] counts the class-cls units busy in cycle c.
	sc.occ = ints(sc.occ, int(dlx.NumClasses)*horizon)
	occ := sc.occ
	for v := 0; v < n; v++ {
		cls := s.Prog.Instrs[v].Class()
		if !dlx.NeedsUnit(cls) {
			continue
		}
		row := occ[int(cls)*horizon:]
		for c := s.Cycle[v]; c < s.Cycle[v]+lat(v); c++ {
			row[c]++
			if row[c] == s.Cfg.Units[cls]+1 {
				// Report each oversubscribed (class, cycle) once.
				p, st := pos(v)
				fail(p, st, "cycle %d oversubscribes %s units (%d available)", c, cls, s.Cfg.Units[cls])
			}
		}
	}

	out = append(out, verifyDeadlockFree(s, sc, &v.syncs)...)
	out = append(out, verifyLBDAccounting(s, &v.syncs)...)
	return out
}

// verifyDeadlockFree checks cross-iteration deadlock freedom. Every
// iteration runs the same schedule in order; a blocked Wait stalls every
// instruction at a later cycle (or later in the same row). The wait-for
// graph over synchronization instructions therefore has two arc families:
//
//   - wait → its send, weighted by the wait's distance d (iteration i's
//     wait depends on iteration i-d's send), and
//   - x → wait, weight 0, whenever x issues at or after the wait (same
//     iteration's in-order stall).
//
// The schedule deadlocks exactly when this graph has a cycle of total
// weight <= 0: the dependence then fails to recede toward earlier
// iterations and can never bottom out at the loop's first iterations.
// Positive distances alone make every cycle positive, so organic schedules
// pass; a distance-0 or negative wait whose send sits at or after it is
// caught here.
func verifyDeadlockFree(s *core.Schedule, sc *scratch, si *syncIndex) diag.List {
	var out diag.List
	syncs, rowPos := si.syncs, sc.rowPos
	if len(syncs) == 0 {
		return nil
	}
	// Each wait has one arc to its send and at most one stall arc from
	// every other synchronization instruction.
	waits := 0
	for i, v := range syncs {
		if s.Prog.Instrs[v].Op == tac.Wait && si.sendOf[i] >= 0 {
			waits++
		}
	}
	arcs := slices.Grow(sc.arcs[:0], waits*len(syncs))
	for i, v := range syncs {
		in := s.Prog.Instrs[v]
		if in.Op == tac.Wait {
			if si.sendOf[i] < 0 {
				st := ""
				p := diag.Pos{}
				if s.Prog.Sync != nil && in.Stmt >= 0 && in.Stmt < len(s.Prog.Sync.Base.Body) {
					stmt := s.Prog.Sync.Base.Body[in.Stmt]
					p, st = stmt.Pos(), stmt.Label
				}
				d := diag.Errorf(Stage, p, "deadlock: %v waits for a signal that is never sent", in)
				if st != "" {
					d = d.WithStmt(st)
				}
				out = append(out, d)
				continue
			}
			arcs = append(arcs, arc{from: i, to: si.pos[si.sendOf[i]], w: in.SigDist})
			// Same-iteration stall arcs into this wait.
			for j, x := range syncs {
				if x == v {
					continue
				}
				if s.Cycle[x] > s.Cycle[v] || (s.Cycle[x] == s.Cycle[v] && rowPos[x] > rowPos[v]) {
					arcs = append(arcs, arc{from: j, to: i, w: 0})
				}
			}
		}
	}
	sc.arcs = arcs
	if len(arcs) == 0 {
		return out
	}
	// Detect a cycle with total weight <= 0: scale weights by K = |arcs|+1
	// and subtract 1 per arc, then any such cycle (and only such a cycle)
	// is strictly negative; Bellman-Ford from an implicit all-zero source.
	k := len(arcs) + 1
	sc.bf = ints(sc.bf, 2*len(syncs))
	dist, pred := sc.bf[:len(syncs)], sc.bf[len(syncs):]
	for i := range pred {
		pred[i] = -1
	}
	bad := -1
	for pass := 0; pass < len(syncs); pass++ {
		changed := false
		for _, a := range arcs {
			if w := dist[a.from] + a.w*k - 1; w < dist[a.to] {
				dist[a.to] = w
				pred[a.to] = a.from
				changed = true
				if pass == len(syncs)-1 {
					bad = a.to
				}
			}
		}
		if !changed {
			break
		}
	}
	if bad >= 0 {
		// Walk predecessors into the cycle and collect it for the report.
		v := bad
		for i := 0; i < len(syncs); i++ {
			v = pred[v]
		}
		var names []string
		start := v
		for {
			names = append(names, s.Prog.Instrs[syncs[v]].String())
			v = pred[v]
			if v == start || len(names) > len(syncs) {
				break
			}
		}
		in := s.Prog.Instrs[syncs[start]]
		p := diag.Pos{}
		st := ""
		if s.Prog.Sync != nil && in.Stmt >= 0 && in.Stmt < len(s.Prog.Sync.Base.Body) {
			stmt := s.Prog.Sync.Base.Body[in.Stmt]
			p, st = stmt.Pos(), stmt.Label
		}
		d := diag.Errorf(Stage, p, "cross-iteration deadlock: wait-for cycle with non-positive total distance through %v", names)
		if st != "" {
			d = d.WithStmt(st)
		}
		out = append(out, d)
	}
	return out
}

// verifyLBDAccounting recomputes the LBD/LFD classification of every
// synchronization pair straight from the instruction cycles and cross-
// checks the schedule's own NumLBD/MaxLBDStall — the inputs of the LBD
// loop theorem T = (n/d)(i-j) + l. A divergence means the cost model is
// being fed a misclassified schedule.
func verifyLBDAccounting(s *core.Schedule, si *syncIndex) diag.List {
	var out diag.List
	lbd := 0
	worst := 0.0
	for i, v := range si.syncs {
		in := s.Prog.Instrs[v]
		if in.Op != tac.Wait || si.sendOf[i] < 0 {
			continue // a send, or a wait the deadlock check reports
		}
		span := s.Cycle[si.sendOf[i]] - s.Cycle[v]
		if span < 0 {
			continue // LFD in the schedule
		}
		lbd++
		if v := float64(span+1) / float64(in.SigDist); v > worst {
			worst = v
		}
	}
	if got := s.NumLBD(); got != lbd {
		out = append(out, diag.Errorf(Stage, diag.Pos{},
			"LBD accounting mismatch: schedule reports %d LBD pairs, recount finds %d", got, lbd))
	}
	if got := s.MaxLBDStall(); got != worst {
		out = append(out, diag.Errorf(Stage, diag.Pos{},
			"LBD stall mismatch: schedule reports %.3f, recount finds %.3f", got, worst))
	}
	return out
}

// VerifyTiming audits the cost model against a simulated execution: the
// analytical Predict bound (the LBD loop theorem applied to the schedule)
// is documented as a lower bound of the simulated parallel time, and no
// execution of n >= 1 iterations can finish before one iteration's
// completion length. total is sim.Timing.Total for the same schedule and
// trip count.
func VerifyTiming(s *core.Schedule, total, n int) diag.List {
	var out diag.List
	if s == nil || n < 1 {
		return nil
	}
	if cl := s.CompletionLength(); total < cl {
		out = append(out, diag.Errorf(Stage, diag.Pos{},
			"timing audit: simulated total %d below one-iteration completion length %d", total, cl))
	}
	if pred := model.Predict(s, n); pred > total {
		out = append(out, diag.Errorf(Stage, diag.Pos{},
			"timing audit: predicted T = %d exceeds simulated total %d at n=%d (Predict must lower-bound the simulation)", pred, total, n))
	}
	return out
}
