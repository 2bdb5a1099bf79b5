package pipeline

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"sync"
	"sync/atomic"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
)

// The persistent tier stores one self-contained entry per verified
// scheduling outcome: the loop source, the option salts it was compiled and
// scheduled under, the machine, the trip count, the schedules (as issue
// rows — everything else is rederived) and the simulated timings. An entry
// is enough to rebuild all three in-memory cache levels (compile memo,
// schedule entry, time entry) without trusting anything but the source
// text: the compiled program and graph are recomputed, the schedules are
// re-verified by internal/check, and the recomputed content address must
// match the filename the entry was stored under.
//
// Degraded results, budget-exhausted exact results and anything that failed
// verification are never persisted, mirroring the in-memory cache's
// verify-before-publish rule.

// diskSchedule is the persisted form of one core.Schedule: the issue rows
// (Rows[c] = node indices issued at cycle c, in issue order) and the
// producing method name. Cycle is rederived from Rows on load.
type diskSchedule struct {
	Method string   `json:"method"`
	Rows   diskRows `json:"rows"`
}

// diskPayload is the JSON payload of one persistent-tier entry.
type diskPayload struct {
	Name        string        `json:"name"`
	Source      string        `json:"source"`
	CompileSalt string        `json:"compile_salt"`
	SchedSalt   string        `json:"sched_salt"`
	ExactSalt   string        `json:"exact_salt"`
	Machine     dlx.Config    `json:"machine"`
	N           int           `json:"n"`
	Window      int           `json:"window"`
	Backend     string        `json:"backend"`
	List        *diskSchedule `json:"list"`
	Sync        *diskSchedule `json:"sync"`
	PredictedT  int           `json:"predicted_t"`
	PredictedAt int           `json:"predicted_at_n,omitempty"`
	Optimal     bool          `json:"optimal,omitempty"`
	LowerBound  int           `json:"lower_bound,omitempty"`
	SearchNodes int64         `json:"search_nodes,omitempty"`
	Note        string        `json:"note,omitempty"`
	Times       simTimes      `json:"times"`
}

// toDisk snapshots a schedule for persistence.
func toDisk(s *core.Schedule) *diskSchedule {
	return &diskSchedule{Method: s.Method, Rows: s.Rows}
}

// rebuild reconstructs a core.Schedule from its persisted rows over a
// freshly recompiled program and graph. It validates only the indexing
// shape needed to build the struct; semantic verification is
// check.Verifier.VerifyLoaded's job.
func (d *diskSchedule) rebuild(prog *core.Schedule) (*core.Schedule, error) {
	n := len(prog.Prog.Instrs)
	cycle := make([]int, n)
	for i := range cycle {
		cycle[i] = -1
	}
	for c, row := range d.Rows {
		for _, v := range row {
			if v < 0 || v >= n {
				return nil, fmt.Errorf("row %d references unknown instruction %d", c, v)
			}
			if cycle[v] != -1 {
				return nil, fmt.Errorf("instruction %d scheduled twice", v)
			}
			cycle[v] = c
		}
	}
	for i, c := range cycle {
		if c == -1 {
			return nil, fmt.Errorf("instruction %d never scheduled", i)
		}
	}
	return &core.Schedule{
		Prog:   prog.Prog,
		Graph:  prog.Graph,
		Cfg:    prog.Cfg,
		Cycle:  cycle,
		Rows:   d.Rows,
		Method: d.Method,
	}, nil
}

// persistResult writes one fresh, verified, cacheable machine result to the
// disk tier. Persistence failures are counted by the store and never fail
// the request — the disk tier is an optimization, not a dependency.
func persistResult(d *DiskStore, name, src string, keys *salts, cfg dlx.Config,
	fp dfg.Fingerprint, n int, entry *schedEntry, times *timeEntry) {
	exSalt := keys.exactSalt(n)
	p := diskPayload{
		Name:        name,
		Source:      src,
		CompileSalt: keys.compile,
		SchedSalt:   keys.sched,
		ExactSalt:   exSalt,
		Machine:     cfg,
		N:           n,
		Window:      keys.window,
		Backend:     entry.backend,
		List:        toDisk(entry.list),
		Sync:        toDisk(entry.sync),
		PredictedT:  entry.predictedT,
		PredictedAt: entry.predictedAtN,
		Optimal:     entry.optimal,
		LowerBound:  entry.lowerBound,
		SearchNodes: entry.searchNodes,
		Note:        entry.note,
		Times:       times.simTimes,
	}
	payload, err := json.Marshal(p)
	if err != nil {
		return
	}
	// Put's error is reflected in the store's WriteErrors counter.
	_ = d.Put(keys.diskKey(fp, cfg, keys.nwSalt(n), exSalt), payload)
}

// LoadStats summarizes one LoadDisk pass.
type LoadStats struct {
	// Scanned counts entries visited; Loaded the entries that passed every
	// check and were published to the in-memory cache.
	Scanned, Loaded int
	// Stale counts well-formed entries skipped because they were produced
	// under different options (salts or window) than opt's.
	Stale int
	// Corrupt counts entries that failed integrity or semantic verification
	// and were quarantined.
	Corrupt int
	// Errors counts entries skipped on transient read failures (left on
	// disk for the next load).
	Errors int
}

// String renders the load summary.
func (ls LoadStats) String() string {
	return fmt.Sprintf("scanned=%d loaded=%d stale=%d corrupt=%d errors=%d",
		ls.Scanned, ls.Loaded, ls.Stale, ls.Corrupt, ls.Errors)
}

// add sums another tally into ls.
func (ls *LoadStats) add(o LoadStats) {
	ls.Scanned += o.Scanned
	ls.Loaded += o.Loaded
	ls.Stale += o.Stale
	ls.Corrupt += o.Corrupt
	ls.Errors += o.Errors
}

// LoadDisk restores the persistent tier into the in-memory cache, so a
// restarted service comes up warm. Every entry is re-earned, never
// trusted:
//
//  1. The store's checksum and header must validate (torn writes, bit rot).
//  2. The entry's option salts and window must match opt's — entries
//     written under other configurations are skipped as stale.
//  3. The loop source is recompiled through the pass manager (sharing
//     compilations via cache) and the persisted issue rows are rebuilt
//     into schedules over the fresh program and graph.
//  4. The rebuilt set passes check.Verifier.VerifyLoaded — the same
//     independent verifier fresh schedules must pass — including the
//     timing audit of the persisted simulated times. Every entry of one
//     loop is checked against one derivation of its edges, held for this
//     load pass only.
//  5. The entry's recomputed content address must equal the key it was
//     stored under, so an entry cannot impersonate another problem.
//
// Entries failing 1, 3, 4 or 5 are quarantined and counted. On success the
// compile memo, schedule entry and time entry are published to cache under
// the same keys a live run would use: subsequent requests for the loop are
// pure memory hits, with zero recompiles and zero reschedules.
//
// The load runs in two phases, each on at most runtime.GOMAXPROCS(0)
// workers. First every entry is read, checked and decoded on its own
// (steps 1 and 2). Then the survivors are grouped by loop source, and one
// worker takes each loop whole: it compiles the loop once and verifies all
// of its entries with a check.Verifier of its own (steps 3 to 5). The
// stats, the quarantine set and the store's counters come out as a load of
// one entry at a time would leave them. A cancelled ctx stops the workers;
// LoadDisk returns ctx.Err() once all of them have exited. A panic in a
// worker (an injected "disk-read" fault, say) stops the others and is
// raised again on the caller's goroutine.
//
// The compilations LoadDisk performs are deliberately not traced into any
// metrics registry: they are warmup verification work, not served traffic.
func LoadDisk(ctx context.Context, d *DiskStore, cache *Cache, opt Options) (LoadStats, error) {
	if d == nil || cache == nil {
		return LoadStats{}, errors.New("pipeline: LoadDisk needs a store and a cache")
	}
	keys, err := d.Keys()
	if err != nil {
		return LoadStats{}, err
	}
	salts := newSalts(opt)
	quarantine := func(ls *LoadStats, k dfg.Fingerprint) {
		ls.Corrupt++
		d.corrupt.Add(1)
		_ = d.Quarantine(k)
	}

	// Phase 1: read, integrity-check and decode every entry; skip the stale.
	payloads := make([]*diskPayload, len(keys))
	ls, err := loadParallel(ctx, len(keys), func(i int, ls *LoadStats) {
		k := keys[i]
		ls.Scanned++
		payload, err := d.Get(k)
		var ce *CorruptEntryError
		switch {
		case err == nil:
		case errors.As(err, &ce):
			ls.Corrupt++
			_ = d.Quarantine(k)
			return
		case errors.Is(err, os.ErrNotExist):
			return // raced with quarantine/replacement; nothing to load
		default:
			ls.Errors++
			return
		}
		p := new(diskPayload)
		if err := json.Unmarshal(payload, p); err != nil {
			quarantine(ls, k)
			return
		}
		if p.CompileSalt != salts.compile || p.SchedSalt != salts.sched || p.Window != opt.Window {
			ls.Stale++
			return
		}
		if p.Source == "" || p.Sync == nil || p.List == nil || p.N < 1 ||
			p.Machine.Validate() != nil {
			quarantine(ls, k)
			return
		}
		payloads[i] = p
	})
	if err != nil {
		return ls, err
	}

	// Group the survivors by loop, in key order.
	var loops [][]int // indices into keys, one slice per distinct source
	bySource := map[string]int{}
	for i, p := range payloads {
		if p == nil {
			continue
		}
		j, ok := bySource[p.Source]
		if !ok {
			j = len(loops)
			bySource[p.Source] = j
			loops = append(loops, nil)
		}
		loops[j] = append(loops[j], i)
	}

	// Phase 2: compile, verify and publish, one loop per worker.
	popts := opt.Compile
	popts.Tracer, popts.FaultHook, popts.Observer, popts.Request = nil, nil, nil, ""
	verified, err := loadParallel(ctx, len(loops), func(j int, ls *LoadStats) {
		entries := loops[j]
		// Recompile the source once (through the memo). The compilation is
		// the ground truth the persisted rows are verified against.
		src := payloads[entries[0]].Source
		srcKey := sourceKey(src, salts.compile)
		var compiled *compileEntry
		if v, ok := cache.Get(srcKey); ok {
			compiled = v.(*compileEntry)
		} else {
			ce, err := compile(ctx, popts, nil, src)
			if err != nil {
				if ctx.Err() != nil {
					return // loadParallel reports the cancellation
				}
				for _, i := range entries {
					quarantine(ls, keys[i])
				}
				return
			}
			v, _ := cache.Put(srcKey, ce)
			compiled = v.(*compileEntry)
		}
		// One verifier per loop, owned by this worker: a Verifier is not
		// safe for concurrent use, and it is never stored in the memo.
		ver := check.NewVerifier(compiled.prog)
		for _, i := range entries {
			if publishEntry(cache, &salts, keys[i], payloads[i], compiled, ver) {
				ls.Loaded++
			} else {
				quarantine(ls, keys[i])
			}
		}
	})
	ls.add(verified)
	return ls, err
}

// publishEntry rebuilds one decoded entry's schedules over its loop's fresh
// compilation, verifies them, audits the entry's content address against
// its key k and publishes the schedule and time entries to cache. It
// reports false, publishing nothing, if any check fails.
func publishEntry(cache *Cache, salts *salts, k dfg.Fingerprint, p *diskPayload,
	compiled *compileEntry, ver *check.Verifier) bool {
	// Rebuild the schedules over the fresh program and graph.
	base := &core.Schedule{Prog: compiled.prog, Graph: compiled.graph, Cfg: p.Machine}
	list, err := p.List.rebuild(base)
	if err != nil {
		return false
	}
	sync, err := p.Sync.rebuild(base)
	if err != nil {
		return false
	}
	// Independent semantic verification: the restored schedules must pass
	// exactly the checks fresh ones do, timing audit included.
	if check.Err(ver.VerifyLoaded(list, sync, p.Times.SyncTime, p.N)) != nil {
		return false
	}
	// Content-address audit: the key recomputed from the entry's own
	// contents must be the key it was filed under.
	fp := compiled.fp
	nwSalt := salts.nwSalt(p.N) // p.Window == opt.Window
	if salts.diskKey(fp, p.Machine, nwSalt, p.ExactSalt) != k {
		return false
	}
	entry := &schedEntry{
		list: list, sync: sync,
		backend:      p.Backend,
		predictedT:   p.PredictedT,
		predictedAtN: p.PredictedAt,
		optimal:      p.Optimal,
		lowerBound:   p.LowerBound,
		searchNodes:  p.SearchNodes,
		note:         p.Note,
	}
	if !entry.cacheable() {
		// A budget-exhausted exact result should never have been
		// persisted; refuse to launder it into the cache.
		return false
	}
	cache.Put(salts.schedKey(fp, p.Machine, p.ExactSalt), entry)
	cache.Put(salts.timeKey(fp, p.Machine, nwSalt, p.ExactSalt), &timeEntry{simTimes: p.Times})
	return true
}

// loadParallel runs work(i, tally) for every i in [0, n) on at most
// runtime.GOMAXPROCS(0) goroutines and returns the sum of the workers'
// tallies. It stops handing out work once ctx is done, and returns
// ctx.Err() only after every worker has exited. A panic in work stops the
// other workers and is re-raised, with its original value, on the caller's
// goroutine once they have all exited.
func loadParallel(ctx context.Context, n int, work func(i int, ls *LoadStats)) (LoadStats, error) {
	var (
		next     atomic.Int64
		stop     atomic.Bool
		wg       sync.WaitGroup
		mu       sync.Mutex
		total    LoadStats
		panicked bool
		panicVal any
	)
	for w := min(runtime.GOMAXPROCS(0), n); w > 0; w-- {
		wg.Add(1)
		go func() {
			var ls LoadStats
			defer func() {
				r := recover()
				mu.Lock()
				total.add(ls)
				if r != nil && !panicked {
					panicked, panicVal = true, r
				}
				mu.Unlock()
				if r != nil {
					stop.Store(true)
				}
				wg.Done()
			}()
			for !stop.Load() && ctx.Err() == nil {
				i := int(next.Add(1)) - 1
				if i >= n {
					return
				}
				work(i, &ls)
			}
		}()
	}
	wg.Wait()
	if panicked {
		panic(panicVal)
	}
	return total, ctx.Err()
}
