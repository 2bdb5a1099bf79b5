package sim

import (
	"fmt"
	"sync"

	"doacross/internal/core"
	"doacross/internal/tac"
)

// timeScratch is the pooled working state of the recurrence engine: the
// schedule's row/signal structure lowered to interned-signal CSR form
// (struct-of-arrays, no per-row slices or per-signal maps in the iteration
// loop) plus the ring of recent iterations' issue times.
//
// The iteration loop walks EVENT rows only — rows containing a Wait or Send.
// Between events the issue recurrence is a straight run (issue[r] =
// issue[r-1]+1), so each run's contribution to the completion time is
// precomputed as max(r + rowLat[r]) and the per-iteration work is O(events),
// not O(schedule length). Time is the batch pipeline's per-request hot loop,
// so the state is pooled and every buffer grows once to the largest schedule
// seen.
type timeScratch struct {
	sigID   map[string]int
	sigName []string
	// Event rows (ascending) and per-event CSRs of waits (signal, distance)
	// and sends (signal).
	evRow    []int32
	waitOff  []int32
	waitSig  []int32
	waitDist []int32
	sendOff  []int32
	sendSig  []int32
	// Per-signal: the send's row (for window validation) and event slot (for
	// ring reads). Per-consumer: the wait's row, distance and event slot.
	sendRow  []int32
	sendEv   []int32
	consOff  []int32
	consRow  []int32
	consDist []int32
	consEv   []int32
	rowLat   []int
	// headMax is max(r + rowLat[r]) before the first event row (over the
	// whole schedule when there are no events); segMax[i] the same over the
	// rows strictly between event i and the next event (or the end).
	headMax int
	segMax  []int
	ring    []int
	maxDist int
	nwaits  int
	nsends  int
}

const segEmpty = -1 << 30

var timePool = sync.Pool{New: func() any { return &timeScratch{sigID: map[string]int{}} }}

func growIntBuf(buf *[]int, n int) []int {
	b := *buf
	if cap(b) < n {
		b = make([]int, n)
		*buf = b
	}
	return b[:n]
}

func growInt32Buf(buf *[]int32, n int) []int32 {
	b := *buf
	if cap(b) < n {
		b = make([]int32, n)
		*buf = b
	}
	return b[:n]
}

func (sc *timeScratch) intern(sig string) int {
	if id, ok := sc.sigID[sig]; ok {
		return id
	}
	id := len(sc.sigName)
	sc.sigID[sig] = id
	sc.sigName = append(sc.sigName, sig)
	return id
}

// build lowers the schedule's synchronization structure into the scratch
// form without allocating once the buffers have grown. It rejects a wait
// whose signal is never sent.
func (sc *timeScratch) build(s *core.Schedule) error {
	L := s.Length()
	clear(sc.sigID)
	sc.sigName = sc.sigName[:0]
	sc.evRow = sc.evRow[:0]
	sc.maxDist = 1
	rowLat := growIntBuf(&sc.rowLat, L)
	nw, ns := 0, 0
	for r, row := range s.Rows {
		rowLat[r] = 0
		sync := false
		for _, v := range row {
			in := s.Prog.Instrs[v]
			if lat := s.Cfg.Latency[in.Class()]; lat > rowLat[r] {
				rowLat[r] = lat
			}
			switch in.Op {
			case tac.Wait:
				sc.intern(in.Signal)
				if in.SigDist > sc.maxDist {
					sc.maxDist = in.SigDist
				}
				nw++
				sync = true
			case tac.Send:
				sc.intern(in.Signal)
				ns++
				sync = true
			}
		}
		if sync {
			sc.evRow = append(sc.evRow, int32(r))
		}
	}
	sc.nwaits, sc.nsends = nw, ns
	E := len(sc.evRow)
	nsig := len(sc.sigName)
	waitOff := growInt32Buf(&sc.waitOff, E+1)
	sendOff := growInt32Buf(&sc.sendOff, E+1)
	sendRow := growInt32Buf(&sc.sendRow, nsig)
	sendEv := growInt32Buf(&sc.sendEv, nsig)
	consCnt := growInt32Buf(&sc.consOff, nsig+1) // reused as counts first
	for i := range sendRow {
		sendRow[i] = -1
	}
	for i := range consCnt {
		consCnt[i] = 0
	}
	waitSig := growInt32Buf(&sc.waitSig, nw)
	waitDist := growInt32Buf(&sc.waitDist, nw)
	sendSig := growInt32Buf(&sc.sendSig, ns)
	waitOff[0], sendOff[0] = 0, 0
	nw, ns = 0, 0
	for e, r32 := range sc.evRow {
		for _, v := range s.Rows[r32] {
			in := s.Prog.Instrs[v]
			switch in.Op {
			case tac.Wait:
				id := sc.sigID[in.Signal]
				waitSig[nw] = int32(id)
				waitDist[nw] = int32(in.SigDist)
				consCnt[id+1]++
				nw++
			case tac.Send:
				id := sc.sigID[in.Signal]
				sendSig[ns] = int32(id)
				sendRow[id] = r32
				sendEv[id] = int32(e)
				ns++
			}
		}
		waitOff[e+1] = int32(nw)
		sendOff[e+1] = int32(ns)
	}
	// Consumer CSR grouped by signal, in row order (waitSig is row-ordered).
	for i := 0; i < nsig; i++ {
		consCnt[i+1] += consCnt[i]
	}
	consRow := growInt32Buf(&sc.consRow, nw)
	consDist := growInt32Buf(&sc.consDist, nw)
	consEv := growInt32Buf(&sc.consEv, nw)
	for e := 0; e < E; e++ {
		for k := waitOff[e]; k < waitOff[e+1]; k++ {
			id := waitSig[k]
			at := consCnt[id]
			consCnt[id]++
			consRow[at] = sc.evRow[e]
			consDist[at] = waitDist[k]
			consEv[at] = int32(e)
		}
	}
	// consCnt[id] now holds the end offset of id's consumers == start of
	// id+1's; shift back into offset form.
	for i := nsig; i > 0; i-- {
		consCnt[i] = consCnt[i-1]
	}
	consCnt[0] = 0
	// Every wait needs a send; the first orphan in row order is reported.
	for e := 0; e < E; e++ {
		for k := waitOff[e]; k < waitOff[e+1]; k++ {
			if sendRow[waitSig[k]] == -1 {
				return fmt.Errorf("sim: wait on signal %s with no send in schedule", sc.sigName[waitSig[k]])
			}
		}
	}
	// Straight-run completion offsets: headMax before the first event (the
	// whole schedule when E == 0), segMax[i] between event i and the next.
	sc.headMax = segEmpty
	first := L
	if E > 0 {
		first = int(sc.evRow[0])
	}
	for r := 0; r < first; r++ {
		if v := r + rowLat[r]; v > sc.headMax {
			sc.headMax = v
		}
	}
	segMax := growIntBuf(&sc.segMax, E)
	for i := 0; i < E; i++ {
		next := L
		if i+1 < E {
			next = int(sc.evRow[i+1])
		}
		segMax[i] = segEmpty
		for r := int(sc.evRow[i]) + 1; r < next; r++ {
			if v := r + rowLat[r]; v > segMax[i] {
				segMax[i] = v
			}
		}
	}
	return nil
}

// checkWindow rejects a bounded signal window that would deadlock: one
// below the largest dependence distance, or one equal to the distance of an
// LFD pair, whose send would then wait for its own iteration's wait.
func (sc *timeScratch) checkWindow(window int) error {
	if window <= 0 {
		return nil
	}
	if window < sc.maxDist {
		return fmt.Errorf("sim: signal window %d smaller than the largest dependence distance %d (deadlock)", window, sc.maxDist)
	}
	for id := range sc.sigName {
		for k := sc.consOff[id]; k < sc.consOff[id+1]; k++ {
			if int(sc.consDist[k]) == window && sc.sendRow[id] <= sc.consRow[k] {
				return fmt.Errorf("sim: signal window %d equals distance %d of an LFD pair on %s (send would wait for its own iteration's wait)", window, sc.consDist[k], sc.sigName[id])
			}
		}
	}
	return nil
}

// run is the recurrence model over scratch state. With opt.MaxCycles > 0 it
// fails if any row would issue after that cycle.
func (sc *timeScratch) run(s *core.Schedule, opt Options) (Timing, error) {
	if err := sc.build(s); err != nil {
		return Timing{}, err
	}
	if err := sc.checkWindow(opt.Window); err != nil {
		return Timing{}, err
	}
	L := s.Length()
	n := opt.N()
	tr := opt.Tracer
	if tr != nil {
		tr.reset(s, opt)
	}
	t := Timing{IterIssue: make([]int, n), IterDone: make([]int, n)}
	if n == 0 || L == 0 {
		if tr != nil {
			tr.Timing = t
		}
		return t, nil
	}
	procs := opt.procs()
	// Only the issue times of the last few iterations matter: back to the
	// maximum wait distance, the processor-reuse distance, and the signal
	// window. Keep a flat ring of that depth; each iteration's ring row holds
	// the issue time of every event row plus (slot E) the last schedule row.
	depth := sc.maxDist
	if procs < n && procs > depth {
		depth = procs
	}
	if opt.Window > depth {
		depth = opt.Window
	}
	E := len(sc.evRow)
	stride := E + 1
	ringSize := (depth + 1) * stride
	ring := growIntBuf(&sc.ring, ringSize)
	base := 0
	// Under a cycle budget: how many iterations issue their last row after
	// cycle MaxCycles, and the first such iteration on each processor (the
	// one it is blocked on).
	unfinished := 0
	var blocked []int
	for idx := 0; idx < n; idx++ {
		start, prevLast := 0, -1
		if idx >= procs {
			// Processor reuse: the previous iteration on this processor must
			// have issued its last row.
			pb := base - procs*stride
			if pb < 0 {
				pb += ringSize
			}
			prevLast = ring[pb+E]
			start = prevLast + 1
		}
		if tr != nil {
			it := &tr.Iters[idx]
			it.Proc = idx % procs
			it.Start = start
		}
		for e := 0; e < E; e++ {
			row := int(sc.evRow[e])
			// Chain-propagated earliest issue: a straight run since the
			// previous event (or the iteration start).
			var unconstrained int
			if e == 0 {
				unconstrained = start + row
			} else {
				unconstrained = ring[base+e-1] + row - int(sc.evRow[e-1])
			}
			earliest := unconstrained
			for k := sc.waitOff[e]; k < sc.waitOff[e+1]; k++ {
				dist := int(sc.waitDist[k])
				if idx-dist < 0 {
					continue // no earlier iteration to wait for
				}
				sb := base - dist*stride
				if sb < 0 {
					sb += ringSize
				}
				sendT := ring[sb+int(sc.sendEv[sc.waitSig[k]])]
				if sendT+1 > earliest {
					earliest = sendT + 1
				}
			}
			// Bounded signal window: iteration idx's send reuses the slot of
			// iteration idx-Window; every wait that consumes that old signal
			// must have issued first.
			if opt.Window > 0 && idx-opt.Window >= 0 {
				for k := sc.sendOff[e]; k < sc.sendOff[e+1]; k++ {
					id := sc.sendSig[k]
					for c := sc.consOff[id]; c < sc.consOff[id+1]; c++ {
						back := opt.Window - int(sc.consDist[c])
						if idx-back < 0 {
							continue
						}
						// back == 0 is the same iteration: the consumer row
						// precedes this row (validated by checkWindow) and its
						// issue time is already in this iteration's slots.
						cb := base - back*stride
						if cb < 0 {
							cb += ringSize
						}
						if ct := ring[cb+int(sc.consEv[c])]; ct+1 > earliest {
							earliest = ct + 1
						}
					}
				}
			}
			t.StallCycles += earliest - unconstrained
			if tr != nil && earliest > unconstrained {
				sc.attributeStalls(&tr.Iters[idx], idx, e, row, unconstrained, earliest, opt, ring, base, stride, ringSize)
			}
			ring[base+e] = earliest
		}
		t.SignalsSent += sc.nsends
		// Issue time of the last schedule row (straight run past the last
		// event), kept for processor reuse.
		last := start + L - 1
		if E > 0 {
			last = ring[base+E-1] + (L - 1 - int(sc.evRow[E-1]))
		}
		ring[base+E] = last
		if opt.MaxCycles > 0 && last > opt.MaxCycles {
			unfinished++
			if prevLast <= opt.MaxCycles {
				blocked = append(blocked, opt.Lo+idx)
			}
		}
		// First-row issue time and completion horizon.
		issue0 := start
		if E > 0 && sc.evRow[0] == 0 {
			issue0 = ring[base]
		}
		t.IterIssue[idx] = issue0
		done := 0
		if sc.headMax != segEmpty {
			done = start + sc.headMax
		}
		for e := 0; e < E; e++ {
			row := int(sc.evRow[e])
			te := ring[base+e]
			if fin := te + sc.rowLat[row]; fin > done {
				done = fin
			}
			if sc.segMax[e] != segEmpty {
				if fin := te - row + sc.segMax[e]; fin > done {
					done = fin
				}
			}
		}
		t.IterDone[idx] = done
		if done > t.Total {
			t.Total = done
		}
		if tr != nil {
			// Reconstruct every row's issue time from the event ring: rows
			// between events are a straight run, one row per cycle.
			it := &tr.Iters[idx]
			it.Done = done
			t0, lastRow := start, 0
			for e := 0; e < E; e++ {
				er := int(sc.evRow[e])
				for r := lastRow; r < er; r++ {
					it.Rows[r] = int32(t0 + r - lastRow)
				}
				it.Rows[er] = int32(ring[base+e])
				t0, lastRow = ring[base+e]+1, er+1
			}
			for r := lastRow; r < L; r++ {
				it.Rows[r] = int32(t0 + r - lastRow)
			}
		}
		base += stride
		if base == ringSize {
			base = 0
		}
	}
	if unfinished > 0 {
		return Timing{}, fmt.Errorf("sim: cycle budget %d exhausted (%d iterations unfinished; blocked iterations %v)",
			opt.MaxCycles, unfinished, blocked)
	}
	if tr != nil {
		tr.Timing = t
	}
	return t, nil
}

// attributeStalls splits the stall of an event row (earliest >
// unconstrained) into attributed spans: it re-scans the constraints of the
// issue-time computation in the same order, so [unconstrained, earliest) is
// covered first by the binding synchronization wait (the latest send the
// row waited on) and then by the bounded-window gate.
func (sc *timeScratch) attributeStalls(it *IterTrace, idx, e, row, unconstrained, earliest int, opt Options, ring []int, base, stride, ringSize int) {
	syncTo := unconstrained
	bind := int32(-1)
	for k := sc.waitOff[e]; k < sc.waitOff[e+1]; k++ {
		dist := int(sc.waitDist[k])
		if idx-dist < 0 {
			continue
		}
		sb := base - dist*stride
		if sb < 0 {
			sb += ringSize
		}
		if sendT := ring[sb+int(sc.sendEv[sc.waitSig[k]])]; sendT+1 > syncTo {
			syncTo = sendT + 1
			bind = k
		}
	}
	if syncTo > earliest {
		syncTo = earliest
	}
	if bind >= 0 && syncTo > unconstrained {
		id := sc.waitSig[bind]
		dist := int(sc.waitDist[bind])
		it.Stalls = append(it.Stalls, Stall{
			Row: row, From: unconstrained, To: syncTo, Cause: CauseSyncWait,
			Signal: sc.sigName[id], Dist: dist, SrcIter: idx - dist,
			SendCycle: syncTo - 1, LBD: int(sc.sendRow[id]) >= row,
		})
	}
	if earliest > syncTo {
		st := Stall{Row: row, From: syncTo, To: earliest, Cause: CauseWindowWait}
		if opt.Window > 0 && idx-opt.Window >= 0 {
			winTo := syncTo
			for k := sc.sendOff[e]; k < sc.sendOff[e+1]; k++ {
				id := sc.sendSig[k]
				for c := sc.consOff[id]; c < sc.consOff[id+1]; c++ {
					back := opt.Window - int(sc.consDist[c])
					if back == 0 || idx-back < 0 {
						continue
					}
					cb := base - back*stride
					if cb < 0 {
						cb += ringSize
					}
					if ct := ring[cb+int(sc.consEv[c])]; ct+1 > winTo {
						winTo = ct + 1
						st.Signal, st.Dist, st.SrcIter, st.SendCycle = sc.sigName[id], int(sc.consDist[c]), idx-back, ct
					}
				}
			}
		}
		it.Stalls = append(it.Stalls, st)
	}
}
