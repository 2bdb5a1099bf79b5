package check_test

import (
	"fmt"
	"reflect"
	"sort"
	"testing"

	"doacross"
	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/diag"
	"doacross/internal/loopgen"
	"doacross/internal/perfect"
	"doacross/internal/tac"
)

// differentialCorpus is the Perfect-profile loops, the two hand-written
// fixtures and count generated loops.
func differentialCorpus(t *testing.T, count int) []string {
	t.Helper()
	srcs := []string{paperSrc, condSrc}
	suites, err := perfect.Suites()
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range suites {
		for _, l := range s.Doacross() {
			srcs = append(srcs, l.Source)
		}
	}
	return append(srcs, loopgen.Suite(0x5EED, count)...)
}

// sameDiags fails the test unless the two diagnostic lists are equal
// element by element, in order.
func sameDiags(t *testing.T, what string, shared, oneShot diag.List) {
	t.Helper()
	if !reflect.DeepEqual(shared, oneShot) {
		t.Errorf("%s: Verifier diagnostics diverge from Verify:\n-- verifier --\n%s-- verify --\n%s", what, shared, oneShot)
	}
}

// mutants returns the schedule mutations the mutation tests apply to s:
// every derived edge broken in turn (TestVerifyMutationKill) and the four
// shape mutations (TestVerifyShapeMutations).
func mutants(s *core.Schedule, edges []check.Edge) map[string]*core.Schedule {
	out := map[string]*core.Schedule{}
	for _, e := range edges {
		mut := cloneSchedule(s)
		mut.Cycle[e.To] = mut.Cycle[e.From]
		rebuildRows(mut)
		out[fmt.Sprintf("broken %v edge %d->%d", e.Kind, e.From, e.To)] = mut
	}
	mut := cloneSchedule(s)
	mut.Cycle = mut.Cycle[:len(mut.Cycle)-1]
	rebuildRows(mut)
	out["truncated"] = mut

	mut = cloneSchedule(s)
	mut.Rows[0] = append(mut.Rows[0], mut.Rows[0][0])
	out["double-scheduled"] = mut

	mut = cloneSchedule(s)
	for v := range mut.Cycle {
		mut.Cycle[v] = 0
	}
	rebuildRows(mut)
	out["width overflow"] = mut

	if len(s.Rows) > 1 && len(s.Rows[0]) > 0 {
		mut = cloneSchedule(s)
		v := mut.Rows[0][0]
		mut.Rows[0] = mut.Rows[0][1:]
		mut.Rows[1] = append(mut.Rows[1], v)
		out["row/cycle disagreement"] = mut
	}
	return out
}

// verifyLoadedOneShot is VerifyLoaded composed from the one-shot checks, as
// its documentation defines it.
func verifyLoadedOneShot(list, sync *core.Schedule, syncTime, n int) diag.List {
	var out diag.List
	for _, s := range []*core.Schedule{list, sync} {
		if s != nil {
			out = append(out, check.Verify(s)...)
		}
	}
	if check.Err(out) == nil {
		out = append(out, check.VerifyTiming(sync, syncTime, n)...)
	}
	return out
}

// TestVerifierMatchesVerify is the differential for edge sharing: one
// Verifier per compiled program, as the pipeline and the disk-tier load use
// it, must report exactly what the one-shot Verify reports — the same
// diagnostics in the same order — for organic schedules, for every
// mutation the mutation tests apply, and for the timing mutations through
// VerifyLoaded.
func TestVerifierMatchesVerify(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 40
	}
	const n = 12
	for i, src := range differentialCorpus(t, count) {
		p, err := doacross.Compile(src)
		if err != nil {
			t.Fatalf("loop %d: compile: %v\n%s", i, err, src)
		}
		v := check.NewVerifier(p.Code)
		edges, err := check.Edges(p.Code)
		if err != nil {
			t.Fatalf("loop %d: %v", i, err)
		}
		for _, m := range machines() {
			var set [3]*core.Schedule
			for k, build := range []func(doacross.Machine) (*core.Schedule, error){
				p.ScheduleList, p.ScheduleSync, p.ScheduleBest,
			} {
				s, err := build(m)
				if err != nil {
					t.Fatalf("loop %d: schedule: %v", i, err)
				}
				set[k] = s
				what := fmt.Sprintf("loop %d, %s, %s", i, m.Name, s.Method)
				got := v.Verify(s)
				if check.Err(got) != nil {
					t.Errorf("%s: organic schedule rejected:\n%s", what, got)
				}
				sameDiags(t, what, got, check.Verify(s))
				if k == 1 {
					// Every mutation of the sync schedule, the one the
					// mutation tests break.
					for name, mut := range mutants(s, edges) {
						got := v.Verify(mut)
						if check.Err(got) == nil {
							t.Errorf("%s: %s accepted", what, name)
						}
						sameDiags(t, what+": "+name, got, check.Verify(mut))
					}
				}
			}

			// Timing mutations through the load-time check.
			list, sync := set[0], set[1]
			total := doacross.Simulate(sync, n).Total
			for _, tc := range []struct {
				name    string
				total   int
				wantErr bool
			}{
				{"organic", total, false},
				{"below completion length", sync.CompletionLength() - 1, true},
				{"below prediction", doacross.Predict(sync, n) - 1, true},
			} {
				what := fmt.Sprintf("loop %d, %s, timing %s", i, m.Name, tc.name)
				got := v.VerifyLoaded(list, sync, tc.total, n)
				if (check.Err(got) != nil) != tc.wantErr {
					t.Errorf("%s: error = %v, want error %v", what, check.Err(got), tc.wantErr)
				}
				sameDiags(t, what, got, verifyLoadedOneShot(list, sync, tc.total, n))
			}
		}
	}
}

// TestVerifierForeignProgram hands a verifier schedules of another program.
// It must check them against the edges of their own program, never its
// own: breaking an edge that only the schedule's program has is rejected,
// with the one-shot diagnostics.
func TestVerifierForeignProgram(t *testing.T) {
	own := doacross.MustCompile(condSrc)
	foreign := doacross.MustCompile(paperSrc)
	v := check.NewVerifier(own.Code)
	ownEdges, err := check.Edges(own.Code)
	if err != nil {
		t.Fatal(err)
	}
	has := map[check.Edge]bool{}
	for _, e := range ownEdges {
		has[e] = true
	}
	edges, err := check.Edges(foreign.Code)
	if err != nil {
		t.Fatal(err)
	}
	s, err := foreign.ScheduleSync(doacross.NewMachine(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	sameDiags(t, "organic foreign schedule", v.Verify(s), check.Verify(s))
	killed := 0
	for _, e := range edges {
		if has[e] {
			continue
		}
		mut := cloneSchedule(s)
		mut.Cycle[e.To] = mut.Cycle[e.From]
		rebuildRows(mut)
		got := v.Verify(mut)
		if check.Err(got) == nil {
			t.Errorf("broken foreign %v edge %d->%d accepted", e.Kind, e.From, e.To)
		}
		sameDiags(t, fmt.Sprintf("foreign %v edge %d->%d", e.Kind, e.From, e.To), got, check.Verify(mut))
		killed++
	}
	if killed == 0 {
		t.Fatal("every edge of the foreign program is also an edge of the verifier's program; the test proves nothing")
	}

	// A second compilation of the same source is a different program: its
	// schedules get a fresh derivation, which must agree.
	again := doacross.MustCompile(condSrc)
	s, err = again.ScheduleSync(doacross.NewMachine(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	sameDiags(t, "recompiled program", v.Verify(s), check.Verify(s))
}

// referenceEdges is the map-based derivation Edges replaced, kept as the
// oracle that the dense derivation lists the same edges in the same order.
func referenceEdges(p *tac.Program) []check.Edge {
	var out []check.Edge
	seen := map[check.Edge]bool{}
	add := func(from, to int, kind check.EdgeKind) {
		e := check.Edge{From: from, To: to, Kind: kind}
		if from != to && !seen[e] {
			seen[e] = true
			out = append(out, e)
		}
	}
	ref := func(r dep.Ref) *tac.Instr {
		switch {
		case r.Array != nil && r.Merge:
			return p.MergeLoad[r.Array]
		case r.Array != nil:
			return p.ArrayInstr[r.Array]
		}
		return p.ScalarInstr[tac.ScalarKey{Stmt: r.Stmt, Name: r.ScalarName, Write: r.Write}]
	}
	defOf := map[int]int{}
	for i, in := range p.Instrs {
		if in.Dst != 0 {
			defOf[in.Dst] = i
		}
	}
	for i, in := range p.Instrs {
		for _, t := range in.Uses() {
			add(defOf[t], i, check.EdgeData)
		}
	}
	for _, d := range p.Sync.Analysis.Deps {
		if d.Distance == 0 {
			add(ref(d.Src).ID-1, ref(d.Snk).ID-1, check.EdgeMem)
		}
	}
	for _, d := range p.Sync.Synced {
		label := p.Sync.Base.Body[d.Src.Stmt].Label
		add(ref(d.Src).ID-1, p.SendFor(label).ID-1, check.EdgeSrcToSend)
		for i, in := range p.Instrs {
			if in.Op == tac.Wait && in.Stmt == d.Snk.Stmt && in.Signal == label && in.SigDist == d.Distance {
				add(i, ref(d.Snk).ID-1, check.EdgeWaitToSnk)
				break
			}
		}
	}
	return out
}

func TestEdgesMatchReference(t *testing.T) {
	for i, src := range differentialCorpus(t, 200) {
		p, err := doacross.Compile(src)
		if err != nil {
			t.Fatalf("loop %d: compile: %v", i, err)
		}
		got, err := check.Edges(p.Code)
		if err != nil {
			t.Fatalf("loop %d: %v", i, err)
		}
		if want := referenceEdges(p.Code); !reflect.DeepEqual(got, want) {
			t.Errorf("loop %d: edges diverge from the reference derivation\ngot  %v\nwant %v\n%s", i, got, want, src)
		}
	}
}

// TestVerifierReuse runs one Verifier over every schedule of a loop on the
// paper's four machines (list, sync and best, each followed by all of its
// mutants), forward and then backward. Every check thus starts on buffers
// the previous schedule left behind: longer and shorter ones, accepted and
// rejected ones, of every mutation kind. Each verdict must equal what a
// one-shot Verify, with fresh buffers, reports.
func TestVerifierReuse(t *testing.T) {
	count := 16
	if testing.Short() {
		count = 4
	}
	type named struct {
		what string
		s    *core.Schedule
		want diag.List
	}
	srcs := append(append([]string{}, fuzzCorpus...), loopgen.Suite(0x5EED, count)...)
	for i, src := range srcs {
		p, err := doacross.Compile(src)
		if err != nil {
			t.Fatalf("loop %d: compile: %v\n%s", i, err, src)
		}
		edges, err := check.Edges(p.Code)
		if err != nil {
			t.Fatalf("loop %d: %v", i, err)
		}
		var all []named
		add := func(what string, s *core.Schedule) {
			all = append(all, named{what, s, check.Verify(s)})
		}
		for _, m := range doacross.PaperMachines() {
			for _, build := range []func(doacross.Machine) (*core.Schedule, error){
				p.ScheduleList, p.ScheduleSync, p.ScheduleBest,
			} {
				s, err := build(m)
				if err != nil {
					t.Fatalf("loop %d: schedule: %v", i, err)
				}
				what := fmt.Sprintf("loop %d, %s, %s", i, m.Name, s.Method)
				add(what, s)
				muts := mutants(s, edges)
				names := make([]string, 0, len(muts))
				for name := range muts {
					names = append(names, name)
				}
				sort.Strings(names)
				for _, name := range names {
					add(what+": "+name, muts[name])
				}
			}
		}
		v := check.NewVerifier(p.Code)
		for _, x := range all {
			sameDiags(t, x.what, v.Verify(x.s), x.want)
		}
		for k := len(all) - 1; k >= 0; k-- {
			sameDiags(t, all[k].what+" (backward)", v.Verify(all[k].s), all[k].want)
		}
	}
}
