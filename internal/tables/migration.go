package tables

import (
	"fmt"
	"strings"

	"doacross/internal/core"
	"doacross/internal/dlx"
	"doacross/internal/model"
	"doacross/internal/passes"
	"doacross/internal/perfect"
	"doacross/internal/sim"
)

// MigRow is one benchmark's three-way comparison: traditional list
// scheduling, source-level synchronization migration followed by list
// scheduling, and the paper's instruction-level technique.
type MigRow struct {
	Name string
	// List, Mig and Sync are summed parallel times under one configuration.
	List, Mig, Sync int
	// MigPct and SyncPct are improvement percentages over List.
	MigPct, SyncPct float64
	// ConvertedByMig counts LBDs the migration removed across the suite.
	ConvertedByMig int
}

// MigrationResult is the extension experiment comparing the paper's
// technique against its own cited predecessor.
type MigrationResult struct {
	Config string
	Rows   []MigRow
	Total  MigRow
}

// RunMigration measures list vs migration+list vs new scheduling on all
// suites under one machine configuration, using the given list-scheduling
// priority for both list runs. Program-order priority respects the source
// placement migration produces; critical-path priority hoists waits and
// destroys it — comparing the two quantifies the paper's core thesis that
// source-level techniques are undone by synchronization-blind scheduling.
func RunMigration(suites []*perfect.Suite, cfg dlx.Config, baseline core.ListPriority) (*MigrationResult, error) {
	res := &MigrationResult{Config: cfg.Name}
	for _, s := range suites {
		row := MigRow{Name: s.Profile.Name}
		for li, l := range s.Doacross() {
			// Plain list and new scheduling on the original order.
			cl, err := passes.CompileLoop(l.AST, passes.Options{})
			if err != nil {
				return nil, fmt.Errorf("tables: %s loop %d: %w", s.Profile.Name, li, err)
			}
			list, err := core.List(cl.Graph, cfg, baseline)
			if err != nil {
				return nil, err
			}
			syn, err := core.Sync(cl.Graph, cfg)
			if err != nil {
				return nil, err
			}
			// Migration, then list scheduling of the migrated loop.
			mc, err := passes.CompileLoop(l.AST, passes.Options{Migrate: true})
			if err != nil {
				return nil, err
			}
			mlist, err := core.List(mc.Graph, cfg, baseline)
			if err != nil {
				return nil, err
			}
			opt := sim.Options{Lo: 1, Hi: s.Profile.N}
			tl, err := sim.Time(list, opt)
			if err != nil {
				return nil, err
			}
			tm, err := sim.Time(mlist, opt)
			if err != nil {
				return nil, err
			}
			ts, err := sim.Time(syn, opt)
			if err != nil {
				return nil, err
			}
			row.List += tl.Total
			row.Mig += tm.Total
			row.Sync += ts.Total
			row.ConvertedByMig += mc.Migration.Before - mc.Migration.After
		}
		row.MigPct = model.Speedup(row.List, row.Mig)
		row.SyncPct = model.Speedup(row.List, row.Sync)
		res.Rows = append(res.Rows, row)
		res.Total.List += row.List
		res.Total.Mig += row.Mig
		res.Total.Sync += row.Sync
		res.Total.ConvertedByMig += row.ConvertedByMig
	}
	res.Total.Name = "Total"
	res.Total.MigPct = model.Speedup(res.Total.List, res.Total.Mig)
	res.Total.SyncPct = model.Speedup(res.Total.List, res.Total.Sync)
	return res, nil
}

// Render formats the migration comparison.
func (r *MigrationResult) Render() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Extension: migration vs. instruction scheduling (%s, 100 iterations)\n", r.Config)
	fmt.Fprintf(&sb, "%-10s %10s %10s %10s %10s %10s %8s\n",
		"Benchmark", "T_list", "T_mig", "T_new", "mig-gain", "new-gain", "LBD-fix")
	write := func(row MigRow) {
		fmt.Fprintf(&sb, "%-10s %10d %10d %10d %9.2f%% %9.2f%% %8d\n",
			row.Name, row.List, row.Mig, row.Sync, row.MigPct, row.SyncPct, row.ConvertedByMig)
	}
	for _, row := range r.Rows {
		write(row)
	}
	write(r.Total)
	return sb.String()
}
