package tables

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"doacross/internal/passes"
	"doacross/internal/perfect"
)

var update = flag.Bool("update", false, "rewrite golden files")

// gapCorpus generates `want` loops by re-seeding the five paper benchmark
// profiles (the same scheme as the repo's differential execution test), so
// failures are reproducible by name.
func gapCorpus(t testing.TB, want int) []GapLoop {
	t.Helper()
	var out []GapLoop
	for variant := uint64(0); len(out) < want; variant++ {
		for _, p := range perfect.Profiles() {
			p.Name = fmt.Sprintf("%s/v%d", p.Name, variant)
			p.Seed = p.Seed ^ (variant * 0x9E3779B97F4A7C15)
			s, err := perfect.Generate(p)
			if err != nil {
				t.Fatalf("generate %s: %v", p.Name, err)
			}
			for li, l := range s.Loops {
				c, err := passes.CompileLoop(l.AST, passes.Options{})
				if err != nil {
					t.Fatalf("compile %s loop %d:\n%s\n%v", p.Name, li, l.Source, err)
				}
				out = append(out, GapLoop{Name: fmt.Sprintf("%s/%d", p.Name, li), Graph: c.Graph})
				if len(out) >= want {
					return out
				}
			}
		}
	}
	return out
}

// TestOptimalityGap is the differential audit over generated loops: on every
// (loop, paper machine shape) problem the exact backend must never lose to
// the heuristic, never dip below its own proven lower bound, and a claimed
// proof must close the gap (bound == T). The anytime budget is deliberately
// modest — the invariants hold whether or not the search completes.
func TestOptimalityGap(t *testing.T) {
	count := 200
	if raceEnabled {
		count = 24
	}
	if testing.Short() {
		count = 10
	}
	loops := gapCorpus(t, count)
	const workers = 8
	var (
		mu   sync.Mutex
		rows []GapRow
		wg   sync.WaitGroup
		sem  = make(chan struct{}, workers)
	)
	for _, gl := range loops {
		gl := gl
		wg.Add(1)
		sem <- struct{}{}
		go func() {
			defer wg.Done()
			defer func() { <-sem }()
			res, err := RunGap([]GapLoop{gl}, GapOptions{MaxNodes: 25_000})
			if err != nil {
				t.Errorf("%s: %v", gl.Name, err)
				return
			}
			mu.Lock()
			rows = append(rows, res.Rows...)
			mu.Unlock()
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	if want := len(loops) * NumConfigs; len(rows) != want {
		t.Fatalf("audited %d rows, want %d", len(rows), want)
	}
	proven := 0
	for _, row := range rows {
		if row.ExactT > row.HeurT {
			t.Errorf("%s on %s: exact T=%d worse than heuristic T=%d",
				row.Loop, row.Config, row.ExactT, row.HeurT)
		}
		if row.Bound > row.ExactT {
			t.Errorf("%s on %s: proven bound %d above exact T=%d",
				row.Loop, row.Config, row.Bound, row.ExactT)
		}
		if row.Optimal {
			proven++
			if row.Bound != row.ExactT {
				t.Errorf("%s on %s: optimal but bound %d != T=%d",
					row.Loop, row.Config, row.Bound, row.ExactT)
			}
			if row.Note != "" {
				t.Errorf("%s on %s: optimal row carries note %q", row.Loop, row.Config, row.Note)
			}
		} else if row.Note == "" {
			t.Errorf("%s on %s: non-optimal row without diagnostic note", row.Loop, row.Config)
		}
	}
	// The generated population must be largely solvable at this budget —
	// an audit that proves nothing audits nothing.
	if proven*2 < len(rows) {
		t.Fatalf("only %d/%d rows proven optimal; budget or solver regressed", proven, len(rows))
	}
	t.Logf("proven optimal on %d/%d (loop, shape) problems", proven, len(rows))
}

// TestGapGolden pins the rendered gap table of a small deterministic corpus
// (the first 6 generated loops at a fixed budget) to a golden file.
// Regenerate with: go test ./internal/tables -run GapGolden -update
func TestGapGolden(t *testing.T) {
	if testing.Short() {
		// The golden content is budget-sensitive, so it cannot shrink under
		// -short; the full lane covers it.
		t.Skip("golden gap table runs in the full lane")
	}
	loops := gapCorpus(t, 6)
	res, err := RunGap(loops, GapOptions{MaxNodes: 25_000})
	if err != nil {
		t.Fatal(err)
	}
	got := res.Render()
	path := filepath.Join("testdata", "gap_golden.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to create)", err)
	}
	if got != string(want) {
		t.Errorf("gap table diverges from %s:\n-- got --\n%s-- want --\n%s", path, got, want)
	}
}

// TestGapJSONRoundTrip pins the JSON snapshot shape: it must parse back and
// carry every row.
func TestGapJSONRoundTrip(t *testing.T) {
	loops := gapCorpus(t, 2)
	res, err := RunGap(loops, GapOptions{MaxNodes: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	b, err := res.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if len(b) == 0 || b[len(b)-1] != '\n' {
		t.Fatal("JSON snapshot must be newline-terminated")
	}
	if got, want := len(res.Rows), 2*NumConfigs; got != want {
		t.Fatalf("rows %d, want %d", got, want)
	}
}

// TestExactBudgetConsistency: the same problem audited under two budgets
// must agree wherever both prove optimality (exact.DefaultMaxNodes is a
// compile-time default, not part of the answer).
func TestExactBudgetConsistency(t *testing.T) {
	if testing.Short() {
		t.Skip("budget cross-check runs in the full lane")
	}
	loops := gapCorpus(t, 3)
	small, err := RunGap(loops, GapOptions{MaxNodes: 10_000})
	if err != nil {
		t.Fatal(err)
	}
	big, err := RunGap(loops, GapOptions{MaxNodes: 50_000})
	if err != nil {
		t.Fatal(err)
	}
	for i := range small.Rows {
		s, b := small.Rows[i], big.Rows[i]
		if s.Optimal && b.Optimal && s.ExactT != b.ExactT {
			t.Errorf("%s on %s: optimal T=%d at 10k nodes but %d at 50k",
				s.Loop, s.Config, s.ExactT, b.ExactT)
		}
		if s.Optimal && !b.Optimal {
			t.Errorf("%s on %s: proven at the smaller budget only", s.Loop, s.Config)
		}
	}
}
