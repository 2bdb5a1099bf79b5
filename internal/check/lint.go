package check

import (
	"fmt"
	"slices"
	"strconv"
	"strings"

	"doacross/internal/dep"
	"doacross/internal/diag"
	"doacross/internal/lang"
	"doacross/internal/syncop"
)

// LintStage is the diagnostic stage name of the source linter.
const LintStage = "lint"

// lintOp is the linter's neutral view of one synchronization operation,
// shared between explicitly written Send_Signal/Wait_Signal statements
// (lang.SyncOp) and compiler-inserted ones (syncop.Op).
type lintOp struct {
	wait   bool
	signal string
	dist   int // wait distance d; 0 for sends
	seq    int // textual order among sync ops and statements
	prev   int // statement index textually before the op, -1 if none
	next   int // statement index textually after the op, len(Body) if none
	src    int // index of the signal's source statement, -1 for an unknown label
	pos    diag.Pos
	stmt   string // label of the anchor statement, "" past the last one
}

// Lint checks the explicitly written synchronization of a source loop and
// returns positioned findings (stage "lint"): waits that can never be
// satisfied (static deadlock), dead sends, non-positive or mismatched
// distances, self-synchronization, and redundant waits subsumed by the
// transitive closure of the remaining synchronization. A loop without
// explicit sync ops has nothing to lint and yields nil.
func Lint(loop *lang.Loop) diag.List {
	if loop == nil || len(loop.Syncs) == 0 {
		return nil
	}
	ops := make([]lintOp, 0, len(loop.Syncs))
	seq := 0
	k := 0 // statements emitted so far
	for _, o := range loop.Syncs {
		// Syncs are recorded in textual order with nondecreasing anchors.
		for k < o.At {
			k++
			seq++
		}
		op := lintOp{
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
	return lintOps(loop, dep.Analyze(loop), ops)
}

// LintSync checks compiler-inserted synchronization. The same rules apply;
// in particular it surfaces waits made redundant by transitivity, which
// syncop.Insert does not eliminate.
func LintSync(sl *syncop.Loop) diag.List {
	if sl == nil {
		return nil
	}
	sends, waits := sl.NumOps()
	ops := make([]lintOp, 0, sends+waits)
	// seq counts ops and statements in execution order: each statement's
	// waits, the statement, then its sends.
	seq := 0
	add := func(o *syncop.Op, k int) {
		st := sl.Base.Body[k]
		op := lintOp{
			wait:   o.Kind == syncop.Wait,
			signal: o.Src,
			dist:   o.Distance,
			seq:    seq,
			pos:    st.Pos(),
			stmt:   st.Label,
		}
		if op.wait {
			op.prev, op.next = k-1, k
		} else {
			op.prev, op.next = k, k+1
		}
		ops = append(ops, op)
		seq++
	}
	for k := range sl.Base.Body {
		for i := range sl.Pre[k] {
			add(&sl.Pre[k][i], k)
		}
		seq++
		for i := range sl.Post[k] {
			add(&sl.Post[k][i], k)
		}
	}
	return lintOps(sl.Base, sl.Analysis, ops)
}

// lintOps runs every lint rule over the neutral op list.
func lintOps(base *lang.Loop, a *dep.Analysis, ops []lintOp) diag.List {
	var out diag.List
	emit := func(op lintOp, err bool, msg string) {
		sev := diag.Warning
		if err {
			sev = diag.Error
		}
		out = append(out, &diag.Diagnostic{Stage: LintStage, Severity: sev, Pos: op.pos, Stmt: op.stmt, Msg: msg})
	}
	report := func(op lintOp, err bool, format string, args ...any) {
		emit(op, err, fmt.Sprintf(format, args...))
	}
	render := func(op lintOp) string {
		var buf [64]byte
		return string(appendOp(buf[:0], &op, base.Var))
	}

	// sigs[s] summarizes the ops naming statement s's signal. Ops with an
	// unknown label are reported before either rule below reads it.
	type sigInfo struct {
		firstSend     int // seq of the first send
		sent, awaited bool
	}
	sigs := make([]sigInfo, len(base.Body))
	for i := range ops {
		op := &ops[i]
		op.src = base.StmtIndex(op.signal)
		if op.src < 0 {
			continue
		}
		if sig := &sigs[op.src]; op.wait {
			sig.awaited = true
		} else if !sig.sent {
			sig.firstSend, sig.sent = op.seq, true
		}
	}

	for _, op := range ops {
		src := op.src
		if src < 0 {
			report(op, true, "%s references unknown statement label %q", render(op), op.signal)
			continue
		}
		if op.wait {
			sendSeq, sent := sigs[src].firstSend, sigs[src].sent
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
				guards := func(d *dep.Dependence) bool {
					return d.Src.Stmt == src && d.Snk.Stmt == op.next && d.Distance > 0
				}
				found, match := false, false
				for i := range a.Deps {
					if d := &a.Deps[i]; guards(d) {
						found, match = true, match || d.Distance == op.dist
					}
				}
				if !found {
					report(op, false, "no loop-carried dependence from %s to %s requires %s", op.signal, base.Body[op.next].Label, render(op))
				} else if !match {
					var dists []int
					for i := range a.Deps {
						if d := &a.Deps[i]; guards(d) {
							dists = append(dists, d.Distance)
						}
					}
					report(op, false, "%s distance %d matches no analyzed dependence %s->%s (analysis finds distances %v)",
						render(op), op.dist, op.signal, base.Body[op.next].Label, dists)
				}
			}
		} else {
			if op.prev < src {
				report(op, true, "%s precedes its source statement %s (synchronization condition 1)", render(op), op.signal)
			}
			if !sigs[src].awaited {
				report(op, false, "signal %s is sent but never awaited (dead synchronization)", op.signal)
			}
			if sigs[src].firstSend != op.seq {
				report(op, false, "duplicate %s", render(op))
			}
		}
	}

	lintRedundantWaits(base, ops, emit)
	out = append(out, lintDepPrecision(base, a, ops, render)...)
	return out
}

// appendOp appends op as written in the source of a loop over the induction
// variable iv: Send_Signal(S1), Wait_Signal(S1, I-2).
func appendOp(b []byte, op *lintOp, iv string) []byte {
	if !op.wait {
		b = append(b, "Send_Signal("...)
		b = append(b, op.signal...)
		return append(b, ')')
	}
	b = append(b, "Wait_Signal("...)
	b = append(b, op.signal...)
	b = append(b, ", "...)
	b = append(b, iv...)
	switch {
	case op.dist < 0:
		b = strconv.AppendInt(append(b, '+'), int64(-op.dist), 10)
	case op.dist > 0:
		b = strconv.AppendInt(append(b, '-'), int64(op.dist), 10)
	}
	return append(b, ')')
}

// hotspotThreshold is how many conservative pair decisions one statement must
// be party to before the linter flags it as a hotspot worth rewriting.
const hotspotThreshold = 2

// lintDepPrecision surfaces the precise dependence analysis through the
// linter: waits whose guarded statement pair is proven independent on every
// subscript pair (the synchronization arc is provably redundant, with the
// independence certificate named), and statements concentrating conservative
// pair decisions (hotspots where the analysis had to assume a dependence).
func lintDepPrecision(base *lang.Loop, a *dep.Analysis, ops []lintOp, render func(lintOp) string) diag.List {
	if a == nil || len(a.Pairs) == 0 {
		return nil
	}
	var out diag.List
	for _, op := range ops {
		if !op.wait || op.dist <= 0 || op.next >= len(base.Body) {
			continue
		}
		src := op.src
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
			d := diag.Warningf(LintStage, op.pos,
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
	// references sit in the same statement. Bit r of a statement's rules
	// records rule r; the report names rules 0 to 15.
	type hotspot struct {
		pairs int
		rules uint16
	}
	var hot []hotspot
	note := func(stmt int, r dep.Rule) {
		if stmt < 0 || stmt >= len(base.Body) {
			return
		}
		if hot == nil {
			hot = make([]hotspot, len(base.Body))
		}
		hot[stmt].pairs++
		if r < 16 {
			hot[stmt].rules |= 1 << r
		}
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
	for s, h := range hot {
		if h.pairs < hotspotThreshold {
			continue
		}
		var rules []string
		for r := dep.Rule(0); r < 16; r++ {
			if h.rules&(1<<r) != 0 {
				rules = append(rules, r.String())
			}
		}
		st := base.Body[s]
		out = append(out, diag.Warningf(LintStage, st.Pos(),
			"conservative-dependence hotspot: %s is party to %d conservative dependence pairs (%s); the analyzer had to assume distance-1 webs for each",
			st.Label, h.pairs, strings.Join(rules, ", ")).WithStmt(st.Label))
	}
	return out
}

// maxFlatSeen bounds the flat visited set of lintRedundantWaits, in
// states. A wait whose distance would need more (tens of thousands of
// iterations) is searched with a map instead.
const maxFlatSeen = 1 << 16

// lintRedundantWaits flags waits subsumed by the transitive closure of the
// other waits. A wait W for signal src(W) with distance d guarantees that
// statement src(W) of iteration i-d completed before W's anchor statement
// of iteration i starts. A chain of other waits V1..Vm re-establishes that
// guarantee when src(V1) >= src(W), src(V(k+1)) >= anchor(Vk), anchor(Vm)
// <= anchor(W), and the distances sum to exactly d — the exact-sum
// requirement matters because iterations of a DOACROSS loop are otherwise
// unordered. Waits already flagged redundant are excluded from chains, so
// of two identical waits only the later is flagged.
//
// The search is a breadth-first search over (anchor, distance sum) states,
// so the chain reported is a shortest one. It renders a chain only for a
// wait it reports, as "[V1 V2 ...]".
func lintRedundantWaits(base *lang.Loop, ops []lintOp, emit func(lintOp, bool, string)) {
	// Waits eligible to participate: positive distance, known signal.
	waits := make([]int, 0, len(ops)) // indices into ops
	for i := range ops {
		if op := &ops[i]; op.wait && op.dist > 0 && op.src >= 0 {
			waits = append(waits, i)
		}
	}
	if len(waits) < 2 {
		return // a chain needs a wait other than the one it subsumes
	}
	redundant := make([]bool, len(waits))
	// A state is a chain ending at anchor with distance sum used, extended
	// through waits[via] from queue[parent]. The queue is walked, never
	// popped, so a reported chain is read back through the parents. Its
	// root is the empty chain, anchored at src(W).
	type state struct{ anchor, used, via, parent int }
	queue := make([]state, 0, 2*len(waits))
	// Every anchor is a wait's next statement, in [0, len(Body)].
	anchors := len(base.Body) + 1
	var seen []bool
	var path []int // a reported chain's waits, last first
	for wi, w := range waits {
		wop := &ops[w]
		d := wop.dist
		// Visited states: seen[anchor*(d+1)+used], or sparse for a huge d.
		var sparse map[[2]int]bool
		if d < maxFlatSeen/anchors {
			seen = slices.Grow(seen[:0], anchors*(d+1))[:anchors*(d+1)]
			clear(seen)
		} else {
			sparse = map[[2]int]bool{}
		}
		queue = append(queue[:0], state{anchor: wop.src, via: -1, parent: -1})
		for head := 0; head < len(queue); head++ {
			e := queue[head]
			if e.used == d && e.anchor <= wop.next {
				path = path[:0]
				for i := head; queue[i].via >= 0; i = queue[i].parent {
					path = append(path, waits[queue[i].via])
				}
				var buf [256]byte
				b := append(appendOp(buf[:0], wop, base.Var), " is redundant: subsumed by transitive synchronization through ["...)
				for i := len(path) - 1; i >= 0; i-- {
					b = appendOp(b, &ops[path[i]], base.Var)
					if i > 0 {
						b = append(b, ' ')
					}
				}
				emit(*wop, false, string(append(b, ']')))
				redundant[wi] = true
				break
			}
			for vi, v := range waits {
				vop := &ops[v]
				if vi == wi || redundant[vi] || vop.src < e.anchor || vop.dist > d-e.used {
					continue
				}
				next := state{anchor: vop.next, used: e.used + vop.dist, via: vi, parent: head}
				if sparse != nil {
					k := [2]int{next.anchor, next.used}
					if sparse[k] {
						continue
					}
					sparse[k] = true
				} else {
					k := next.anchor*(d+1) + next.used
					if seen[k] {
						continue
					}
					seen[k] = true
				}
				queue = append(queue, next)
			}
		}
	}
}
