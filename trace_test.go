package doacross

import (
	"fmt"
	"testing"

	"doacross/internal/tac"
)

// TestTraceAttribution is the stall-attribution property test: over ~200
// generated loops, traced both by SimulateTraced and by Execute with real
// data, every non-issue cycle must carry exactly one attributed cause — per
// processor, issued + sync-wait + window-wait + drain cycles equal the
// machine's total cycles — and the attributed wait-stall and signal totals
// must agree bit-exactly with the simulator's own Timing counters. The
// per-row issue cycles are checked against an independent reference machine
// in internal/sim (TestTraceRowsMatchOracle).
func TestTraceAttribution(t *testing.T) {
	count := 200
	if testing.Short() {
		count = 50
	}
	loops := differentialCorpus(t, count)
	machines := []Machine{NewMachine(4, 1), Machine2Issue(2), UniformMachine(2, 1)}
	const n = 12
	procsChoices := []int{0, 3, 1}
	for i, gl := range loops {
		gl := gl
		name := fmt.Sprintf("%03d-%s", i, gl.Template)
		t.Run(name, func(t *testing.T) {
			p, err := CompileLoop(gl.AST)
			if err != nil {
				t.Fatalf("compile:\n%s\n%v", gl.Source, err)
			}
			m := machines[i%len(machines)]
			s, err := p.ScheduleSync(m)
			if err != nil {
				t.Fatalf("schedule on %s: %v", m.Name, err)
			}
			opt := SimOptions{Lo: 1, Hi: n, Procs: procsChoices[i%len(procsChoices)]}

			// SimulateTraced runs Check itself.
			tm, ttr, err := SimulateTraced(s, opt)
			if err != nil {
				t.Fatalf("traced sim:\n%s\n%v", gl.Source, err)
			}

			// Execute, traced, with real data.
			rtr := &SimTracer{}
			ropt := opt
			ropt.Tracer = rtr
			rm, err := Execute(s, p.SeedStore(n, uint64(i)*2654435761+1), ropt)
			if err != nil {
				t.Fatalf("traced execution:\n%s\n%v", gl.Source, err)
			}
			if err := rtr.Check(rm); err != nil {
				t.Errorf("execution attribution:\n%s\n%v", gl.Source, err)
			}
			if rm.Total != tm.Total || rm.StallCycles != tm.StallCycles || rm.SignalsSent != tm.SignalsSent {
				t.Fatalf("Execute %+v vs SimulateTraced %+v", rm, tm)
			}

			// The derived utilization must balance to the cycle.
			u := ttr.Utilization()
			if got := u.IssuedCycles + u.SyncWaitCycles + u.WindowWaitCycles + u.DrainCycles; got != u.Procs*u.Cycles {
				t.Errorf("utilization books: %d attributed cycles over %d procs x %d cycles", got, u.Procs, u.Cycles)
			}
			if u.SyncWaitCycles+u.WindowWaitCycles != tm.StallCycles {
				t.Errorf("utilization wait cycles %d+%d != engine stall cycles %d", u.SyncWaitCycles, u.WindowWaitCycles, tm.StallCycles)
			}
			if u.LBDWaitCycles+u.LFDWaitCycles != u.SyncWaitCycles {
				t.Errorf("LBD %d + LFD %d wait cycles != sync wait cycles %d", u.LBDWaitCycles, u.LFDWaitCycles, u.SyncWaitCycles)
			}
			if u.SignalsSent != tm.SignalsSent {
				t.Errorf("utilization signals %d != engine %d", u.SignalsSent, tm.SignalsSent)
			}
		})
	}
}

// TestTraceAttributionWindow exercises the bounded-signal-window stall path
// (CauseWindowWait) explicitly: the same corpus under a tight window must
// still attribute every cycle, traced by SimulateTraced and by Execute.
func TestTraceAttributionWindow(t *testing.T) {
	loops := differentialCorpus(t, 40)
	const n = 10
	for i, gl := range loops {
		gl := gl
		t.Run(fmt.Sprintf("%03d-%s", i, gl.Template), func(t *testing.T) {
			p, err := CompileLoop(gl.AST)
			if err != nil {
				t.Fatalf("compile: %v", err)
			}
			s, err := p.ScheduleSync(NewMachine(2, 1))
			if err != nil {
				t.Fatalf("schedule: %v", err)
			}
			// The tightest always-valid window: one past the largest
			// dependence distance (equality on an LFD pair is rejected).
			maxDist := 1
			for _, in := range s.Prog.Instrs {
				if in.Op == tac.Wait && in.SigDist > maxDist {
					maxDist = in.SigDist
				}
			}
			opt := SimOptions{Lo: 1, Hi: n, Procs: 4, Window: maxDist + 1}
			tm, _, err := SimulateTraced(s, opt)
			if err != nil {
				t.Fatalf("traced sim (window %d): %v", opt.Window, err)
			}
			rtr := &SimTracer{}
			ropt := opt
			ropt.Tracer = rtr
			rm, err := Execute(s, p.SeedStore(n, uint64(i)+99), ropt)
			if err != nil {
				t.Fatalf("traced execution (window %d): %v", opt.Window, err)
			}
			if err := rtr.Check(rm); err != nil {
				t.Errorf("execution attribution: %v", err)
			}
			if rm.Total != tm.Total || rm.StallCycles != tm.StallCycles {
				t.Fatalf("Execute %+v vs SimulateTraced %+v under window", rm, tm)
			}
		})
	}
}
