// Package scheditest is the shared conformance suite for scheduling
// backends: one table-driven battery, run against every implementation of
// core.Scheduler, asserting the contract the pipeline and the facade rely
// on — schedules that validate and pass the independent verifier,
// deterministic results, self-consistent optimality evidence, and the
// analytical bound T = (n/d)(i-j)+l never exceeding the simulated time.
//
// New backends get the whole battery for one Run call; a backend that
// cannot honor the contract fails here before it can corrupt a cache or a
// golden table.
package scheditest

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/model"
	"doacross/internal/passes"
	"doacross/internal/sim"
)

// Case is one conformance corpus entry.
type Case struct {
	// Name labels the subtest.
	Name string
	// Graph is the compiled scheduling problem.
	Graph *dfg.Graph
}

// Corpus compiles the kernel corpus under dir (testdata/kernels at the repo
// root) into conformance cases, in name order. Multi-loop files contribute
// "<name>#k" cases.
func Corpus(t testing.TB, dir string) []Case {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatalf("scheditest: %v", err)
	}
	var cases []Case
	for _, e := range entries {
		if !strings.HasSuffix(e.Name(), ".loop") {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatalf("scheditest: %v", err)
		}
		name := strings.TrimSuffix(e.Name(), ".loop")
		f, err := lang.ParseFile(string(b))
		if err != nil {
			t.Fatalf("scheditest: %s: %v", name, err)
		}
		for i, l := range f.Loops {
			c, err := passes.CompileLoop(l, passes.Options{})
			if err != nil {
				t.Fatalf("scheditest: %s: %v", name, err)
			}
			label := name
			if len(f.Loops) > 1 {
				label = fmt.Sprintf("%s#%d", name, i+1)
			}
			cases = append(cases, Case{Name: label, Graph: c.Graph})
		}
	}
	sort.Slice(cases, func(i, j int) bool { return cases[i].Name < cases[j].Name })
	if len(cases) < 10 {
		t.Fatalf("scheditest: corpus too small: %d cases in %s", len(cases), dir)
	}
	return cases
}

// Options tunes a conformance run.
type Options struct {
	// N is the trip count for the Predict-vs-simulation check (0 = 100).
	N int
	// Configs are the machine shapes to run (nil = the paper's four).
	Configs []dlx.Config
	// Short limits each (backend, config) to the first Short cases — for
	// -short CI runs of expensive backends (0 = all).
	Short int
}

func (o Options) n() int {
	if o.N > 0 {
		return o.N
	}
	return 100
}

func (o Options) configs() []dlx.Config {
	if len(o.Configs) > 0 {
		return o.Configs
	}
	return dlx.PaperConfigs()
}

// Run exercises one backend against the corpus on every machine shape. For
// every case it asserts:
//
//   - Schedule returns a non-nil schedule that passes Schedule.Validate and
//     the independent verifier (internal/check).
//   - Two runs produce identical cycle assignments and identical outcome
//     evidence (determinism — the cache and golden tables rely on it).
//   - The closed-form prediction T = (n/d)(i-j)+l never exceeds the
//     simulated parallel time (the model is a lower bound on execution).
//   - The outcome's evidence is self-consistent: a claimed objective T
//     matches model.Predict; Optimal implies LowerBound == T and an empty
//     note; non-Optimal exact evidence implies a diagnostic note.
func Run(t *testing.T, sched core.Scheduler, cases []Case, opt Options) {
	n := opt.n()
	for _, cfg := range opt.configs() {
		cfg := cfg
		t.Run(cfg.Name, func(t *testing.T) {
			run := cases
			if opt.Short > 0 && len(run) > opt.Short {
				run = run[:opt.Short]
			}
			for _, c := range run {
				c := c
				t.Run(c.Name, func(t *testing.T) {
					t.Parallel()
					out, err := sched.Schedule(c.Graph, cfg)
					if err != nil {
						t.Fatalf("%s: %v", sched.Name(), err)
					}
					if out == nil || out.Schedule == nil {
						t.Fatalf("%s: nil outcome schedule", sched.Name())
					}
					s := out.Schedule
					if err := s.Validate(); err != nil {
						t.Fatalf("%s: schedule failed validation: %v", sched.Name(), err)
					}
					if err := check.Err(check.Verify(s)); err != nil {
						t.Fatalf("%s: independent verifier rejected schedule: %v", sched.Name(), err)
					}
					// Determinism: an identical second run.
					out2, err := sched.Schedule(c.Graph, cfg)
					if err != nil {
						t.Fatalf("%s: second run: %v", sched.Name(), err)
					}
					if out2.T != out.T || out2.Optimal != out.Optimal ||
						out2.LowerBound != out.LowerBound || out2.Nodes != out.Nodes {
						t.Fatalf("%s: nondeterministic outcome: %+v vs %+v", sched.Name(), out, out2)
					}
					for v := range s.Cycle {
						if out2.Schedule.Cycle[v] != s.Cycle[v] {
							t.Fatalf("%s: nondeterministic schedule: node %d at cycle %d then %d",
								sched.Name(), v, s.Cycle[v], out2.Schedule.Cycle[v])
						}
					}
					// The analytical model must lower-bound the simulation.
					predicted := model.Predict(s, n)
					tm, err := sim.Time(s, sim.Options{Lo: 1, Hi: n})
					if err != nil {
						t.Fatalf("%s: simulate: %v", sched.Name(), err)
					}
					if predicted > tm.Total {
						t.Fatalf("%s: Predict=%d exceeds simulated %d at n=%d",
							sched.Name(), predicted, tm.Total, n)
					}
					// Evidence self-consistency.
					if out.T != 0 && out.T != model.Predict(s, 100) {
						t.Fatalf("%s: outcome T=%d but Predict(n=100)=%d",
							sched.Name(), out.T, model.Predict(s, 100))
					}
					if out.LowerBound > 0 && out.T > 0 && out.LowerBound > out.T {
						t.Fatalf("%s: lower bound %d above T=%d", sched.Name(), out.LowerBound, out.T)
					}
					if out.Optimal {
						if out.LowerBound != out.T {
							t.Fatalf("%s: optimal but LowerBound=%d != T=%d",
								sched.Name(), out.LowerBound, out.T)
						}
						if out.Note != "" {
							t.Fatalf("%s: optimal outcome carries note %q", sched.Name(), out.Note)
						}
					}
				})
			}
		})
	}
}
