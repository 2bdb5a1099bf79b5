package check

import (
	"strings"
	"testing"

	"doacross/internal/core"
	"doacross/internal/tac"
)

// syncSchedule hand-builds a schedule containing only synchronization
// instructions, for exercising the wait-for-graph deadlock analysis in
// isolation.
func syncSchedule(instrs []*tac.Instr, cycles []int) (*core.Schedule, []int) {
	for i, in := range instrs {
		in.ID = i + 1
		in.Stmt = -1
	}
	max := 0
	for _, c := range cycles {
		if c > max {
			max = c
		}
	}
	rows := make([][]int, max+1)
	rowPos := make([]int, len(instrs))
	for v, c := range cycles {
		rowPos[v] = len(rows[c])
		rows[c] = append(rows[c], v)
	}
	s := &core.Schedule{
		Prog:  &tac.Program{Instrs: instrs},
		Cycle: cycles,
		Rows:  rows,
	}
	return s, rowPos
}

func TestDeadlockDetection(t *testing.T) {
	wait := func(sig string, d int) *tac.Instr {
		return &tac.Instr{Op: tac.Wait, Signal: sig, SigDist: d}
	}
	send := func(sig string) *tac.Instr {
		return &tac.Instr{Op: tac.Send, Signal: sig}
	}
	cases := []struct {
		name     string
		instrs   []*tac.Instr
		cycles   []int
		deadlock bool
	}{
		{
			// An LBD pair: the wait stalls but each iteration's send
			// eventually unblocks the next. Not a deadlock.
			name:   "lbd pair",
			instrs: []*tac.Instr{wait("S1", 1), send("S1")},
			cycles: []int{0, 1},
		},
		{
			// Distance 0 with the send after the wait: the wait needs its
			// own iteration's send, which sits behind it. Deadlock.
			name:     "distance zero send after",
			instrs:   []*tac.Instr{wait("S1", 0), send("S1")},
			cycles:   []int{0, 1},
			deadlock: true,
		},
		{
			// Distance 0 with the send before the wait is satisfied within
			// the iteration.
			name:   "distance zero send before",
			instrs: []*tac.Instr{send("S1"), wait("S1", 0)},
			cycles: []int{0, 1},
		},
		{
			// Negative distance (wait on a future iteration) with the send
			// behind the wait: infinite regress across iterations.
			name:     "future wait send after",
			instrs:   []*tac.Instr{wait("S1", -1), send("S1")},
			cycles:   []int{0, 1},
			deadlock: true,
		},
		{
			// Negative distance but the send issues first: every iteration
			// sends early, so the waits resolve.
			name:   "future wait send before",
			instrs: []*tac.Instr{send("S1"), wait("S1", -1)},
			cycles: []int{0, 1},
		},
		{
			// Two crossing distance-0 pairs blocking each other.
			name: "crossing pairs",
			instrs: []*tac.Instr{
				wait("S1", 0), send("S2"), wait("S2", 0), send("S1"),
			},
			cycles:   []int{0, 1, 2, 3},
			deadlock: true,
		},
		{
			// The same crossing shape with positive distances recedes to
			// earlier iterations and bottoms out.
			name: "crossing pairs positive",
			instrs: []*tac.Instr{
				wait("S1", 1), send("S2"), wait("S2", 1), send("S1"),
			},
			cycles: []int{0, 1, 2, 3},
		},
		{
			name:     "missing send",
			instrs:   []*tac.Instr{wait("S9", 1)},
			cycles:   []int{0},
			deadlock: true,
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s, rowPos := syncSchedule(c.instrs, c.cycles)
			si := indexSyncs(s.Prog)
			l := verifyDeadlockFree(s, &scratch{rowPos: rowPos}, &si)
			if got := len(l.Errors()) > 0; got != c.deadlock {
				t.Errorf("deadlock = %v, want %v; diagnostics:\n%s", got, c.deadlock, l)
			}
		})
	}
}

func TestDeadlockReportNamesCycle(t *testing.T) {
	s, rowPos := syncSchedule([]*tac.Instr{
		{Op: tac.Wait, Signal: "S1", SigDist: 0},
		{Op: tac.Send, Signal: "S1"},
	}, []int{0, 1})
	si := indexSyncs(s.Prog)
	l := verifyDeadlockFree(s, &scratch{rowPos: rowPos}, &si)
	if len(l.Errors()) == 0 {
		t.Fatal("no deadlock reported")
	}
	if msg := l.String(); !strings.Contains(msg, "S1") {
		t.Errorf("report does not name the signal:\n%s", msg)
	}
}
