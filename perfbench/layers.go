package main

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"runtime"
	"runtime/debug"
	"time"

	"doacross/internal/check"
	"doacross/internal/core"
	"doacross/internal/dep"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/lang"
	"doacross/internal/pipeline"
	"doacross/internal/sim"
	"doacross/internal/syncop"
	"doacross/internal/tac"
)

// The traced run replays a sample of the workload's own loops through each
// layer's public entry points, timing every call from outside the layer.
const (
	traceSample = 96    // loops replayed per layer
	tracePasses = 5     // timing passes; each time is the median pass
	bigNSample  = 8     // loops simulated at bigN
	bigN        = 10000 // the large trip count of sim.time_us_bigN
)

// layerCounters are the workload-drive counters the traced run reports
// beside the replayed layer figures.
type layerCounters struct {
	hitFrac, timeMissFrac   float64
	coalescedFrac, shedFrac float64
	diskWriteErrors         float64
}

// compiled is one loop's compile-path products.
type compiled struct {
	loop *lang.Loop
	an   *dep.Analysis
	sl   *syncop.Loop
	prog *tac.Program
	g    *dfg.Graph
}

// layerClock accumulates per-layer busy time and call counts in one pass.
type layerClock struct {
	d map[string]time.Duration
	n map[string]int
}

func newLayerClock() *layerClock {
	return &layerClock{d: map[string]time.Duration{}, n: map[string]int{}}
}

func (c *layerClock) add(layer string, t time.Time) {
	c.d[layer] += time.Since(t)
	c.n[layer]++
}

// mean returns the layer's mean call time in microseconds.
func (c *layerClock) mean(layer string) float64 {
	if c.n[layer] == 0 {
		return 0
	}
	return us(c.d[layer]) / float64(c.n[layer])
}

// replayPass runs every sample loop through the compile path, both
// schedulers, the verifier and the simulator on every machine, timing each
// call. It returns the products and the N=100 sync times.
func replayPass(srcs []string, machines []dlx.Config, c *layerClock) ([]compiled, [][]int, error) {
	out := make([]compiled, len(srcs))
	times := make([][]int, len(srcs))
	for i, src := range srcs {
		t := time.Now()
		loop, err := lang.Parse(src)
		c.add("lang.parse_us", t)
		if err != nil {
			return nil, nil, err
		}
		t = time.Now()
		an := dep.AnalyzeOpts(loop, dep.Options{})
		c.add("dep.analyze_us", t)
		t = time.Now()
		sl := syncop.Insert(an, syncop.Options{})
		c.add("syncop.insert_us", t)
		t = time.Now()
		prog, err := tac.Generate(sl)
		c.add("tac.generate_us", t)
		if err != nil {
			return nil, nil, err
		}
		t = time.Now()
		g, err := dfg.Build(prog, an)
		c.add("dfg.build_us", t)
		if err != nil {
			return nil, nil, err
		}
		out[i] = compiled{loop, an, sl, prog, g}
		for _, cfg := range machines {
			t = time.Now()
			ls, err := core.List(g, cfg, core.ProgramOrder)
			c.add("core.list_us", t)
			if err != nil {
				return nil, nil, err
			}
			t = time.Now()
			ss, err := core.Sync(g, cfg)
			c.add("core.sync_us", t)
			if err != nil {
				return nil, nil, err
			}
			for _, s := range []*core.Schedule{ls, ss} {
				t = time.Now()
				verr := check.Err(check.Verify(s))
				c.add("check.verify_us", t)
				if verr != nil {
					return nil, nil, verr
				}
			}
			var st sim.Timing
			for _, s := range []*core.Schedule{ls, ss} {
				t = time.Now()
				st, err = sim.Time(s, sim.Options{Lo: 1, Hi: paperN})
				c.add("sim.time_us_n100", t)
				if err != nil {
					return nil, nil, err
				}
			}
			times[i] = append(times[i], st.Total)
		}
	}
	return out, times, nil
}

// traceLayers reports every per-layer metric for the workload whose loops
// are srcs. d is the workload's daemon (nil when the workload has none: a
// throwaway daemon without a disk tier is then started and warmed on the
// sample).
func traceLayers(b *bench, d *daemon, srcs []string, lc layerCounters) error {
	sample := sampleOf(b.seed, srcs, traceSample)
	machines := dlx.PaperConfigs()
	reqs := make([]pipeline.Request, len(sample))
	bodies := make([][]byte, len(sample))
	calls := make([][]byte, len(sample))
	for i, src := range sample {
		reqs[i] = pipeline.Request{Name: fmt.Sprintf("trace%d", i), Source: src, N: paperN}
		bodies[i] = encodeRequest(reqs[i].Name, src, paperN)
		calls[i] = encodeCall(reqs[i].Name, bodies[i])
	}

	// Untraced reference: the pipeline's own per-loop time on the sample,
	// single worker, fresh cache — the denominator of layer_coverage — and
	// its answers, which the replay must reproduce.
	opt := serveOptions()
	var pipeTimes []float64
	var warm pipeline.Options
	var ref *pipeline.Batch
	for p := 0; p < tracePasses; p++ {
		o := opt
		o.Cache = pipeline.NewCache()
		t := time.Now()
		batch, err := pipeline.RunContext(context.Background(), reqs, o)
		if err != nil {
			return err
		}
		pipeTimes = append(pipeTimes, us(time.Since(t))/float64(len(reqs)))
		if err := batch.FirstErr(); err != nil {
			return err
		}
		ref, warm = batch, o
	}

	// Timing passes (the first also warms every code path).
	var clocks []*layerClock
	var prods []compiled
	for p := 0; p <= tracePasses; p++ {
		c := newLayerClock()
		pr, times, err := replayPass(sample, machines, c)
		if err != nil {
			return fmt.Errorf("replay: %w", err)
		}
		if p == 0 {
			for i := range ref.Loops {
				for k, mr := range ref.Loops[i].Machines {
					b.res.Attempted++
					if times[i][k] != mr.SyncTime {
						b.fail("replay of %s on %s: T %d, pipeline served %d", reqs[i].Name, mr.Machine, times[i][k], mr.SyncTime)
					}
				}
			}
			continue
		}
		clocks = append(clocks, c)
		prods = pr
	}
	perCall := func(layer string) float64 {
		xs := make([]float64, len(clocks))
		for i, c := range clocks {
			xs[i] = c.mean(layer)
		}
		return medianF(xs)
	}
	m := float64(len(machines))
	covered := 0.0
	for _, l := range []struct {
		name  string
		calls float64 // calls per loop
	}{
		{"lang.parse_us", 1}, {"dep.analyze_us", 1}, {"syncop.insert_us", 1},
		{"tac.generate_us", 1}, {"dfg.build_us", 1},
		{"core.list_us", m}, {"core.sync_us", m}, {"check.verify_us", 2 * m}, {"sim.time_us_n100", 2 * m},
	} {
		v := perCall(l.name)
		b.set(l.name, v, "us")
		covered += v * l.calls
	}
	pipe := medianF(pipeTimes)
	b.set("layer_coverage", covered/pipe, "frac")
	info("layer_coverage: replayed layer self-time %.1fus per loop / untraced pipeline %.1fus per loop", covered, pipe)

	// IR and schedule sizes, and the simulator at a large trip count.
	var exact, conservative, syncOps, instrs, nodes, paths, schedLen, lbd, scheds float64
	var bigTimes []float64
	var stalls, busy, signals float64
	for i, pr := range prods {
		e, _, cons := pr.an.Counts()
		exact += float64(e)
		conservative += float64(cons)
		for k := range pr.sl.Pre {
			syncOps += float64(len(pr.sl.Pre[k]) + len(pr.sl.Post[k]))
		}
		instrs += float64(len(pr.prog.Instrs))
		nodes += float64(len(pr.g.Succ))
		paths += float64(len(pr.g.SyncPaths()))
		for _, cfg := range machines {
			ss, err := core.Sync(pr.g, cfg)
			if err != nil {
				return err
			}
			schedLen += float64(ss.Length())
			lbd += float64(ss.NumLBD())
			scheds++
			tm, err := sim.Time(ss, sim.Options{Lo: 1, Hi: paperN})
			if err != nil {
				return err
			}
			stalls += float64(tm.StallCycles)
			busy += float64(tm.StallCycles) + float64(paperN*ss.Length())
			signals += float64(tm.SignalsSent)
			if i >= bigNSample {
				continue
			}
			var durs []time.Duration
			for p := 0; p < 3; p++ {
				t := time.Now()
				_, err = sim.Time(ss, sim.Options{Lo: 1, Hi: bigN})
				durs = append(durs, time.Since(t))
				if err != nil {
					return err
				}
			}
			bigTimes = append(bigTimes, us(medianDur(durs)))
		}
	}
	loops := float64(len(prods))
	b.set("dep.pairs_exact", exact/loops, "count")
	b.set("dep.pairs_conservative", conservative/loops, "count")
	b.set("syncop.sync_ops", syncOps/loops, "count")
	b.set("tac.instrs", instrs/loops, "count")
	b.set("dfg.nodes", nodes/loops, "count")
	b.set("dfg.sync_paths", paths/loops, "count")
	b.set("core.sched_len", schedLen/scheds, "rows")
	b.set("core.lbd_arcs", lbd/scheds, "count")
	b.set("sim.time_us_bigN", mean(bigTimes), "us")
	b.set("sim.stall_frac", stalls/busy, "frac")
	b.set("sim.signals", signals/scheds, "count")

	allocLayers(b, sample, prods, machines)

	// Cached pipeline hit: one warm pipeline.Run per sample loop.
	var hitTimes []float64
	for p := 0; p < tracePasses; p++ {
		t := time.Now()
		for _, r := range reqs {
			batch, err := pipeline.Run([]pipeline.Request{r}, warm)
			if err != nil {
				return err
			}
			if err := batch.FirstErr(); err != nil {
				return err
			}
		}
		hitTimes = append(hitTimes, us(time.Since(t))/float64(len(reqs)))
	}
	b.set("pipeline.hit_us", medianF(hitTimes), "us")

	// The daemon: ServeHTTP with no socket, then a loopback round trip.
	if d == nil {
		var err error
		if d, _, err = startDaemon(""); err != nil {
			return err
		}
		defer d.stop()
	}
	h := d.srv.Handler()
	serve := func(body []byte) error {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/schedule", bytes.NewReader(body)))
		if rec.Code != http.StatusOK {
			return fmt.Errorf("handler: status %d: %s", rec.Code, rec.Body.String())
		}
		return nil
	}
	for _, body := range bodies {
		if err := serve(body); err != nil {
			return err
		}
	}
	var handlerTimes, rtTimes []float64
	cn, err := dial(d.addr)
	if err != nil {
		return err
	}
	defer cn.close()
	for p := 0; p < tracePasses; p++ {
		t := time.Now()
		for _, body := range bodies {
			if err := serve(body); err != nil {
				return err
			}
		}
		handlerTimes = append(handlerTimes, us(time.Since(t))/float64(len(bodies)))
		t = time.Now()
		for _, call := range calls {
			status, ans, err := cn.do(call)
			if err == nil && status != http.StatusOK {
				err = fmt.Errorf("round trip: status %d: %s", status, ans)
			}
			if err != nil {
				return err
			}
		}
		rtTimes = append(rtTimes, us(time.Since(t))/float64(len(bodies)))
	}
	b.set("server.handler_us", medianF(handlerTimes), "us")
	b.set("http.roundtrip_us", medianF(rtTimes), "us")

	if err := traceDisk(b, reqs, lc.diskWriteErrors); err != nil {
		return err
	}
	b.set("pipeline.cache_hit_frac", lc.hitFrac, "frac")
	b.set("pipeline.time_miss_frac", lc.timeMissFrac, "frac")
	b.set("server.coalesced_frac", lc.coalescedFrac, "frac")
	b.set("server.shed_frac", lc.shedFrac, "frac")
	return nil
}

// allocLayers counts allocations per call of each compile-path layer on one
// scheduler slot with the collector off, so that pooled scratch is always
// found again and the counts repeat exactly.
func allocLayers(b *bench, sample []string, prods []compiled, machines []dlx.Config) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	count := func(calls int, f func()) float64 {
		f() // warm pools and lazily built tables
		m0 := mallocs()
		f()
		return float64(mallocs()-m0) / float64(calls)
	}
	n := len(sample)
	b.set("lang.allocs", count(n, func() {
		for _, src := range sample {
			_, _ = lang.Parse(src)
		}
	}), "count")
	b.set("dep.allocs", count(n, func() {
		for _, pr := range prods {
			dep.AnalyzeOpts(pr.loop, dep.Options{})
		}
	}), "count")
	b.set("tac.allocs", count(n, func() {
		for _, pr := range prods {
			_, _ = tac.Generate(pr.sl)
		}
	}), "count")
	b.set("dfg.allocs", count(n, func() {
		for _, pr := range prods {
			_, _ = dfg.Build(pr.prog, pr.an)
		}
	}), "count")
	var scheds []*core.Schedule
	for _, pr := range prods {
		for _, cfg := range machines {
			ss, _ := core.Sync(pr.g, cfg)
			scheds = append(scheds, ss)
		}
	}
	b.set("core.allocs", count(2*len(scheds), func() {
		for _, pr := range prods {
			for _, cfg := range machines {
				_, _ = core.List(pr.g, cfg, core.ProgramOrder)
				_, _ = core.Sync(pr.g, cfg)
			}
		}
	}), "count")
	b.set("check.allocs", count(len(scheds), func() {
		for _, s := range scheds {
			check.Verify(s)
		}
	}), "count")
}

// traceDisk times DiskStore.Put on the sample's real entries and LoadDisk
// re-verifying them.
func traceDisk(b *bench, reqs []pipeline.Request, driveWriteErrors float64) error {
	srcDir, err := b.workDir("trace-disk-src")
	if err != nil {
		return err
	}
	if _, err := fillDisk(b, srcDir, reqs); err != nil {
		return err
	}
	src, err := pipeline.OpenDiskStore(srcDir)
	if err != nil {
		return err
	}
	keys, err := src.Keys()
	if err != nil {
		return err
	}
	dstDir, err := b.workDir("trace-disk")
	if err != nil {
		return err
	}
	dst, err := pipeline.OpenDiskStore(dstDir)
	if err != nil {
		return err
	}
	var put time.Duration
	for _, k := range keys {
		payload, err := src.Get(k)
		if err != nil {
			return err
		}
		t := time.Now()
		err = dst.Put(k, payload)
		put += time.Since(t)
		if err != nil {
			return err
		}
	}
	if err := dst.Flush(); err != nil {
		return err
	}
	b.set("disk.put_us", us(put)/float64(len(keys)), "us")
	b.set("disk.write_errors", driveWriteErrors+float64(dst.Stats().WriteErrors), "count")
	var loads []float64
	for p := 0; p < 3; p++ {
		t := time.Now()
		ls, err := pipeline.LoadDisk(context.Background(), dst, pipeline.NewCache(), serveOptions())
		took := time.Since(t)
		if err != nil {
			return err
		}
		if ls.Loaded != len(keys) {
			return fmt.Errorf("trace LoadDisk: %s, want %d loaded", ls, len(keys))
		}
		loads = append(loads, us(took)/float64(ls.Loaded))
	}
	b.set("disk.load_us_per_entry", medianF(loads), "us")
	return nil
}

// sampleOf returns up to k loops of srcs, a seeded stride through the list.
func sampleOf(seed uint64, srcs []string, k int) []string {
	if len(srcs) <= k {
		return srcs
	}
	step := len(srcs) / k
	start := int(mix(seed^0x7ace) % uint64(step))
	out := make([]string, 0, k)
	for i := start; i < len(srcs) && len(out) < k; i += step {
		out = append(out, srcs[i])
	}
	return out
}

func mean(xs []float64) float64 {
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
