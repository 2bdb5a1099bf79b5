package passes

import (
	"fmt"
	"strings"

	"doacross/internal/core"
	"doacross/internal/exact"
)

// BackendNames lists the recognized scheduling backend names, sorted. The
// empty name is accepted as an alias for "sync" (the paper's heuristic, the
// historical default).
func BackendNames() []string {
	return []string{"best", "exact", "list", "order", "sync"}
}

// Backend resolves a backend name to its Scheduler:
//
//	""/"sync"  the paper's Sig/Wat/Sigwat heuristic
//	"list"     critical-path list scheduling (no sync awareness)
//	"order"    program-order list scheduling (the naive baseline)
//	"best"     the never-degrades pick among sync and both list baselines
//	"exact"    the branch-and-bound solver (internal/exact)
//
// ex configures the exact backend and is ignored by the others. Unknown
// names fail with the accepted list, so a mistyped -backend flag surfaces
// before any compilation work happens.
func Backend(name string, ex exact.Options) (core.Scheduler, error) {
	switch name {
	case "", "sync":
		return core.SyncScheduler{}, nil
	case "list":
		return core.ListScheduler{Priority: core.CriticalPath}, nil
	case "order":
		return core.ListScheduler{Priority: core.ProgramOrder}, nil
	case "best":
		return core.BestScheduler{}, nil
	case "exact":
		return exact.Backend{Opt: ex}, nil
	default:
		return nil, fmt.Errorf("passes: unknown scheduling backend %q (have %s)",
			name, strings.Join(BackendNames(), ", "))
	}
}
