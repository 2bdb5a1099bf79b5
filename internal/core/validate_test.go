package core

import (
	"strings"
	"testing"

	"doacross/internal/dlx"
)

// corrupt clones a schedule's mutable state so injections don't leak.
func corrupt(t *testing.T, s *Schedule) *Schedule {
	t.Helper()
	cp := *s
	cp.Cycle = append([]int(nil), s.Cycle...)
	cp.Rows = make([][]int, len(s.Rows))
	for i, r := range s.Rows {
		cp.Rows[i] = append([]int(nil), r...)
	}
	return &cp
}

// TestValidateFailureInjection corrupts a valid schedule in every way the
// validator claims to detect and asserts each is caught.
func TestValidateFailureInjection(t *testing.T) {
	g := buildGraph(t, fig1Source)
	s, err := Sync(g, dlx.Standard(4, 1))
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Validate(); err != nil {
		t.Fatalf("pristine schedule invalid: %v", err)
	}

	t.Run("dependence violation", func(t *testing.T) {
		c := corrupt(t, s)
		// Move the first arc's target to cycle 0 (before its producer).
		arc := c.Graph.Arcs[0]
		old := c.Cycle[arc.To]
		c.Cycle[arc.To] = 0
		// Patch rows to stay self-consistent (cycle map checked first
		// otherwise).
		for i, row := range c.Rows {
			for j, v := range row {
				if v == arc.To {
					c.Rows[i] = append(row[:j], row[j+1:]...)
					goto moved
				}
			}
		}
	moved:
		c.Rows[0] = append(c.Rows[0], arc.To)
		_ = old
		err := c.Validate()
		if err == nil {
			t.Fatal("dependence violation not detected")
		}
	})

	t.Run("issue width exceeded", func(t *testing.T) {
		// A 2-issue schedule has full rows to overflow.
		narrow, err := Sync(g, dlx.Standard(2, 2))
		if err != nil {
			t.Fatal(err)
		}
		c := corrupt(t, narrow)
		// Find the last node and cram it into an already-full row.
		fullRow := -1
		for i, row := range c.Rows {
			if len(row) == c.Cfg.Issue {
				fullRow = i
				break
			}
		}
		if fullRow == -1 {
			t.Skip("no full row to overflow")
		}
		// Move the last instruction into the full row.
		lastRow := len(c.Rows) - 1
		v := c.Rows[lastRow][0]
		c.Rows[lastRow] = c.Rows[lastRow][1:]
		c.Rows[fullRow] = append(c.Rows[fullRow], v)
		c.Cycle[v] = fullRow
		verr := c.Validate()
		if verr == nil || !strings.Contains(verr.Error(), "issues") && !strings.Contains(verr.Error(), "arc") && !strings.Contains(verr.Error(), "units") {
			t.Fatalf("overflow not detected properly: %v", verr)
		}
	})

	t.Run("node scheduled twice", func(t *testing.T) {
		c := corrupt(t, s)
		v := c.Rows[len(c.Rows)-1][0]
		c.Rows[0] = append(c.Rows[0][:0:0], c.Rows[0]...)
		// Duplicate v into an empty-ish later position on a new row.
		c.Rows = append(c.Rows, []int{v})
		if err := c.Validate(); err == nil {
			t.Fatal("duplicate issue not detected")
		}
	})

	t.Run("missing node", func(t *testing.T) {
		c := corrupt(t, s)
		last := len(c.Rows) - 1
		v := c.Rows[last][0]
		c.Rows[last] = c.Rows[last][1:]
		// Cycle still claims v is scheduled; drop it from rows only.
		_ = v
		if err := c.Validate(); err == nil {
			t.Fatal("missing node not detected")
		}
	})

	t.Run("FU oversubscription", func(t *testing.T) {
		// Build a schedule on a 4-issue machine, then lie about the config:
		// claim only 1 unit per class while the schedule used 2.
		g := buildGraph(t, "DO I = 1, N\nA[I] = E[I] + F[I]\nB[I] = G[I] + H[I]\nENDDO")
		wide, err := List(g, dlx.Standard(4, 2), ProgramOrder)
		if err != nil {
			t.Fatal(err)
		}
		// Confirm some cycle really uses 2 load/store units.
		uses2 := false
		counts := map[int]int{}
		for v, cyc := range wide.Cycle {
			if wide.Prog.Instrs[v].Class() == dlx.LoadStore {
				counts[cyc]++
				if counts[cyc] > 1 {
					uses2 = true
				}
			}
		}
		if !uses2 {
			t.Skip("schedule did not exercise the second unit")
		}
		c := corrupt(t, wide)
		c.Cfg = dlx.Standard(4, 1)
		if err := c.Validate(); err == nil {
			t.Fatal("unit oversubscription not detected")
		}
	})

	t.Run("latency violation", func(t *testing.T) {
		// Validate a uniform-latency schedule against the real (mul=3)
		// latencies: the back-to-back multiply consumer must be flagged.
		g := buildGraph(t, fig1Source)
		uni, err := List(g, dlx.Uniform(4, 2), ProgramOrder)
		if err != nil {
			t.Fatal(err)
		}
		c := corrupt(t, uni)
		c.Cfg = dlx.Standard(4, 2)
		if err := c.Validate(); err == nil {
			t.Fatal("latency violation not detected")
		}
	})
}

// TestValidateOversubscriptionDeterministic: when several classes are
// oversubscribed, Validate reports the first (class, cycle) every time.
func TestValidateOversubscriptionDeterministic(t *testing.T) {
	g := buildGraph(t, "DO I = 1, N\nA[I] = E[I] + F[I]\nB[I] = G[I] + H[I]\nC[I] = P[I] + Q[I]\nENDDO")
	wide, err := List(g, dlx.Standard(8, 4), ProgramOrder)
	if err != nil {
		t.Fatal(err)
	}
	// Claim one unit per class: both the loads and the adds that the wide
	// machine issued side by side now oversubscribe their class.
	c := corrupt(t, wide)
	c.Cfg = dlx.Standard(8, 1)
	over := map[dlx.Class]bool{}
	for cls, occ := range c.Occupancy() {
		for _, busy := range occ {
			if busy > 1 {
				over[cls] = true
			}
		}
	}
	if !over[dlx.LoadStore] || !over[dlx.Float] {
		t.Fatalf("schedule oversubscribes %v, want load/store and float units", over)
	}
	first := c.Validate()
	if first == nil || !strings.Contains(first.Error(), dlx.LoadStore.String()) {
		t.Fatalf("Validate = %v, want the load/store oversubscription", first)
	}
	for i := 0; i < 100; i++ {
		if err := c.Validate(); err == nil || err.Error() != first.Error() {
			t.Fatalf("call %d: Validate = %v, want %v", i, err, first)
		}
	}
}
