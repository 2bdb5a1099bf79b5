// The linter as it was before it went allocation-lean: per-op Items copies,
// map-keyed signal bookkeeping, and a redundant-wait search that renders
// every chain it explores. It is kept, unchanged apart from its names, as
// the oracle the current linter must match byte for byte.

package check_test

import (
	"fmt"
	"strings"

	"doacross/internal/check"
	"doacross/internal/dep"
	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/syncop"
)

// oracleOp is the old linter's neutral view of one synchronization operation.
type oracleOp struct {
	wait   bool
	signal string
	dist   int // wait distance d; 0 for sends
	seq    int // textual order among sync ops and statements
	prev   int // statement index textually before the op, -1 if none
	next   int // statement index textually after the op, len(Body) if none
	pos    diag.Pos
	stmt   string // label of the anchor statement, "" past the last one
}

// oracleLint is the old check.Lint.
func oracleLint(loop *lang.Loop) diag.List {
	if loop == nil || len(loop.Syncs) == 0 {
		return nil
	}
	var ops []oracleOp
	seq := 0
	k := 0 // statements emitted so far
	for _, o := range loop.Syncs {
		// Syncs are recorded in textual order with nondecreasing anchors.
		for k < o.At {
			k++
			seq++
		}
		op := oracleOp{
			wait: o.Wait, signal: o.Signal, dist: o.Dist,
			seq: seq, prev: k - 1, next: k,
			pos: o.Pos(),
		}
		if k < len(loop.Body) {
			op.stmt = loop.Body[k].Label
		}
		ops = append(ops, op)
		seq++
	}
	return oracleLintOps(loop, dep.Analyze(loop), ops)
}

// oracleLintSync is the old check.LintSync.
func oracleLintSync(sl *syncop.Loop) diag.List {
	if sl == nil {
		return nil
	}
	var ops []oracleOp
	for seq, it := range sl.Items() {
		if it.Op == nil {
			continue
		}
		op := oracleOp{
			wait:   it.Op.Kind == syncop.Wait,
			signal: it.Op.Src,
			dist:   it.Op.Distance,
			seq:    seq,
			pos:    sl.Base.Body[it.StmtIndex].Pos(),
			stmt:   sl.Base.Body[it.StmtIndex].Label,
		}
		if op.wait {
			op.prev, op.next = it.StmtIndex-1, it.StmtIndex
		} else {
			op.prev, op.next = it.StmtIndex, it.StmtIndex+1
		}
		ops = append(ops, op)
	}
	return oracleLintOps(sl.Base, sl.Analysis, ops)
}

// oracleLintOps runs every lint rule over the neutral op list.
func oracleLintOps(base *lang.Loop, a *dep.Analysis, ops []oracleOp) diag.List {
	var out diag.List
	report := func(op oracleOp, err bool, format string, args ...any) {
		var d *diag.Diagnostic
		if err {
			d = diag.Errorf(check.LintStage, op.pos, format, args...)
		} else {
			d = diag.Warningf(check.LintStage, op.pos, format, args...)
		}
		if op.stmt != "" {
			d = d.WithStmt(op.stmt)
		}
		out = append(out, d)
	}
	render := func(op oracleOp) string {
		if !op.wait {
			return fmt.Sprintf("Send_Signal(%s)", op.signal)
		}
		switch {
		case op.dist == 0:
			return fmt.Sprintf("Wait_Signal(%s, %s)", op.signal, base.Var)
		case op.dist < 0:
			return fmt.Sprintf("Wait_Signal(%s, %s+%d)", op.signal, base.Var, -op.dist)
		default:
			return fmt.Sprintf("Wait_Signal(%s, %s-%d)", op.signal, base.Var, op.dist)
		}
	}

	srcOf := func(signal string) int { return base.StmtIndex(signal) }
	firstSendSeq := map[string]int{}
	awaited := map[string]bool{}
	for _, op := range ops {
		if op.wait {
			awaited[op.signal] = true
		} else if _, dup := firstSendSeq[op.signal]; !dup {
			firstSendSeq[op.signal] = op.seq
		}
	}

	for _, op := range ops {
		src := srcOf(op.signal)
		if src < 0 {
			report(op, true, "%s references unknown statement label %q", render(op), op.signal)
			continue
		}
		if op.wait {
			sendSeq, sent := firstSendSeq[op.signal]
			if !sent {
				report(op, true, "static deadlock: %s has no matching Send_Signal(%s)", render(op), op.signal)
				continue
			}
			if op.dist < 0 {
				report(op, true, "%s waits on a future iteration (negative distance %d)", render(op), op.dist)
				continue
			}
			if op.dist == 0 {
				if sendSeq > op.seq {
					if src == op.next {
						report(op, true, "self-synchronization deadlock: %s waits for its own statement's signal within the same iteration", render(op))
					} else {
						report(op, true, "static deadlock: %s waits within the iteration for Send_Signal(%s), which executes after it", render(op), op.signal)
					}
				} else {
					report(op, false, "%s is always satisfied by the preceding Send_Signal(%s); redundant", render(op), op.signal)
				}
				continue
			}
			// Distance audit against the dependence analysis: the wait
			// guards its anchor statement against the signal's source.
			if a != nil && op.next < len(base.Body) {
				var dists []int
				match := false
				for _, d := range a.Deps {
					if d.Src.Stmt == src && d.Snk.Stmt == op.next && d.Distance > 0 {
						dists = append(dists, d.Distance)
						if d.Distance == op.dist {
							match = true
						}
					}
				}
				if len(dists) == 0 {
					report(op, false, "no loop-carried dependence from %s to %s requires %s", op.signal, base.Body[op.next].Label, render(op))
				} else if !match {
					report(op, false, "%s distance %d matches no analyzed dependence %s->%s (analysis finds distances %v)",
						render(op), op.dist, op.signal, base.Body[op.next].Label, dists)
				}
			}
		} else {
			if op.prev < src {
				report(op, true, "%s precedes its source statement %s (synchronization condition 1)", render(op), op.signal)
			}
			if !awaited[op.signal] {
				report(op, false, "signal %s is sent but never awaited (dead synchronization)", op.signal)
			}
			if firstSendSeq[op.signal] != op.seq {
				report(op, false, "duplicate %s", render(op))
			}
		}
	}

	oracleRedundantWaits(base, ops, report, render)
	out = append(out, oracleDepPrecision(base, a, ops, render)...)
	return out
}

// oracleHotspotThreshold is the old hotspot threshold.
const oracleHotspotThreshold = 2

// oracleDepPrecision surfaces the precise dependence analysis through the
// linter: waits whose guarded statement pair is proven independent on every
// subscript pair (the synchronization arc is provably redundant, with the
// independence certificate named), and statements concentrating conservative
// pair decisions (hotspots where the analysis had to assume a dependence).
func oracleDepPrecision(base *lang.Loop, a *dep.Analysis, ops []oracleOp, render func(oracleOp) string) diag.List {
	if a == nil || len(a.Pairs) == 0 {
		return nil
	}
	var out diag.List
	for _, op := range ops {
		if !op.wait || op.dist <= 0 || op.next >= len(base.Body) {
			continue
		}
		src := base.StmtIndex(op.signal)
		if src < 0 || src == op.next {
			continue
		}
		indep, total := 0, 0
		var rule dep.Rule
		for i := range a.Pairs {
			p := &a.Pairs[i]
			if (p.A.Stmt == src && p.B.Stmt == op.next) || (p.A.Stmt == op.next && p.B.Stmt == src) {
				total++
				if p.Verdict == dep.VerdictIndependent {
					indep++
					rule = p.Evidence.Rule
				}
			}
		}
		if total > 0 && indep == total {
			d := diag.Warningf(check.LintStage, op.pos,
				"provably-redundant synchronization arc: %s guards %s against %s, but every subscript pair between them is proven independent (%s)",
				render(op), base.Body[op.next].Label, op.signal, rule)
			if op.stmt != "" {
				d = d.WithStmt(op.stmt)
			}
			out = append(out, d)
		}
	}
	// Conservative hotspots: statements party to several pair decisions the
	// analysis could not refine. Counted once per pair even when both
	// references sit in the same statement.
	counts := make([]int, len(base.Body))
	reasons := make([]map[dep.Rule]bool, len(base.Body))
	note := func(stmt int, r dep.Rule) {
		if stmt < 0 || stmt >= len(base.Body) {
			return
		}
		counts[stmt]++
		if reasons[stmt] == nil {
			reasons[stmt] = map[dep.Rule]bool{}
		}
		reasons[stmt][r] = true
	}
	for i := range a.Pairs {
		p := &a.Pairs[i]
		if p.Verdict != dep.VerdictConservative || p.Evidence.Rule == dep.RuleScalar {
			continue
		}
		note(p.A.Stmt, p.Evidence.Rule)
		if p.B.Stmt != p.A.Stmt {
			note(p.B.Stmt, p.Evidence.Rule)
		}
	}
	for s, n := range counts {
		if n < oracleHotspotThreshold {
			continue
		}
		var rules []string
		for r := dep.Rule(0); int(r) < 16; r++ {
			if reasons[s][r] {
				rules = append(rules, r.String())
			}
		}
		st := base.Body[s]
		out = append(out, diag.Warningf(check.LintStage, st.Pos(),
			"conservative-dependence hotspot: %s is party to %d conservative dependence pairs (%s); the analyzer had to assume distance-1 webs for each",
			st.Label, n, strings.Join(rules, ", ")).WithStmt(st.Label))
	}
	return out
}

// oracleRedundantWaits flags waits subsumed by the transitive closure of the
// other waits. A wait W for signal src(W) with distance d guarantees that
// statement src(W) of iteration i-d completed before W's anchor statement
// of iteration i starts. A chain of other waits V1..Vm re-establishes that
// guarantee when src(V1) >= src(W), src(V(k+1)) >= anchor(Vk), anchor(Vm)
// <= anchor(W), and the distances sum to exactly d — the exact-sum
// requirement matters because iterations of a DOACROSS loop are otherwise
// unordered. Waits already flagged redundant are excluded from chains, so
// of two identical waits only the later is flagged.
func oracleRedundantWaits(base *lang.Loop, ops []oracleOp, report func(oracleOp, bool, string, ...any), render func(oracleOp) string) {
	// Waits eligible to participate: positive distance, known signal.
	var waits []oracleOp
	for _, op := range ops {
		if op.wait && op.dist > 0 && base.StmtIndex(op.signal) >= 0 {
			waits = append(waits, op)
		}
	}
	redundant := map[int]bool{} // seq -> flagged
	for _, w := range waits {
		srcW := base.StmtIndex(w.signal)
		type state struct {
			anchor, used int
		}
		type entry struct {
			st    state
			chain []string
		}
		var queue []entry
		seen := map[state]bool{}
		push := func(st state, chain []string) {
			if st.used > w.dist || seen[st] {
				return
			}
			seen[st] = true
			queue = append(queue, entry{st: st, chain: chain})
		}
		for _, v := range waits {
			if v.seq == w.seq || redundant[v.seq] {
				continue
			}
			if base.StmtIndex(v.signal) >= srcW {
				push(state{anchor: v.next, used: v.dist}, []string{render(v)})
			}
		}
		found := false
		for len(queue) > 0 && !found {
			e := queue[0]
			queue = queue[1:]
			if e.st.used == w.dist && e.st.anchor <= w.next {
				report(w, false, "%s is redundant: subsumed by transitive synchronization through %v", render(w), e.chain)
				redundant[w.seq] = true
				found = true
				break
			}
			for _, v := range waits {
				if v.seq == w.seq || redundant[v.seq] {
					continue
				}
				if base.StmtIndex(v.signal) >= e.st.anchor {
					push(state{anchor: v.next, used: e.st.used + v.dist}, append(append([]string{}, e.chain...), render(v)))
				}
			}
		}
	}
}
