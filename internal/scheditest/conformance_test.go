package scheditest

import (
	"path/filepath"
	"testing"

	"doacross/internal/exact"
	"doacross/internal/passes"
)

// kernelDir locates the shared kernel corpus from this package.
var kernelDir = filepath.Join("..", "..", "testdata", "kernels")

// TestBackendConformance runs the shared battery against every registered
// backend, heuristic and exact alike, on every paper machine shape.
func TestBackendConformance(t *testing.T) {
	cases := Corpus(t, kernelDir)
	for _, name := range passes.BackendNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			var ex exact.Options
			opt := Options{}
			if name == "exact" {
				// The default node budget proves most of the corpus optimal
				// and returns an anytime bound on the rest; -short trims the
				// case list to keep the -race CI lane quick.
				ex = exact.Options{MaxNodes: exact.DefaultMaxNodes}
				if testing.Short() {
					opt.Short = 6
				}
			}
			sched, err := passes.Backend(name, ex)
			if err != nil {
				t.Fatal(err)
			}
			if sched.Name() != name {
				t.Fatalf("Backend(%q).Name() = %q", name, sched.Name())
			}
			Run(t, sched, cases, opt)
		})
	}
}

// TestBackendUnknownName pins the seam's error contract: a mistyped backend
// fails fast, naming the accepted list.
func TestBackendUnknownName(t *testing.T) {
	if _, err := passes.Backend("exacto", exact.Options{}); err == nil {
		t.Fatal("unknown backend name accepted")
	}
	if s, err := passes.Backend("", exact.Options{}); err != nil || s.Name() != "sync" {
		t.Fatalf("empty backend name: %v, %v", s, err)
	}
}
