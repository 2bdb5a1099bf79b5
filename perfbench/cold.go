package main

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"doacross/internal/dlx"
	"doacross/internal/pipeline"
)

// coldLoops is the cold-batch corpus size: every loop of coldRounds seeded
// Perfect-profile rounds of the frozen pool, then loopgen loops. The corpus
// is this large so that the paper's figures, which depend on the loops
// drawn, vary little from seed to seed, and so that the latency tail is set
// by many distinct loops.
const (
	coldRounds = 16
	coldLoops  = 2400
)

// coldBatchLoops is how many consecutive loops of a pass share one fresh
// cache: a batch, as one benchtab -j run over a 240-loop input.
const coldBatchLoops = 240

// Set-up is timed coldSetupReps times on a warm-up batch of coldWarmLoops
// loops, and the median reported.
const (
	coldSetupReps = 9
	coldWarmLoops = 96
)

// runCold is the cold-batch workload: every loop of a seeded corpus is
// compiled, scheduled, verified and simulated from scratch on the four
// paper machines at N=100. nproc callers push the corpus through
// pipeline.RunContext one loop per call, so every loop's latency is seen;
// each batch of coldBatchLoops loops gets a fresh cache.
func runCold(b *bench) error {
	p, err := loadPool()
	if err != nil {
		return err
	}
	srcs, err := p.corpus(b.seed, coldRounds, coldLoops)
	if err != nil {
		return err
	}
	order := shuffled(b.seed^0xc01d, len(srcs))
	setup, err := coldSetup(b, srcs, order[:coldWarmLoops])
	if err != nil {
		return err
	}
	info("cold-batch: %d distinct loops, %d machines, N=%d, %d callers, fresh cache per %d loops",
		len(srcs), len(dlx.PaperConfigs()), paperN, b.nproc, coldBatchLoops)

	// Reference pass (untimed, benchtab -j style: one RunContext per batch
	// with nproc workers): every served schedule is verified, a sample is
	// memory-checked, and the answers become the reference every timed call
	// must reproduce.
	opt := pipeline.Options{Workers: b.nproc, Machines: dlx.PaperConfigs(), N: paperN}
	ref := make(map[string][]answer, len(srcs))
	var served [][]answer
	var sample []pipeline.LoopResult
	for start := 0; start < len(order); start += coldBatchLoops {
		var reqs []pipeline.Request
		for _, k := range order[start:min(start+coldBatchLoops, len(order))] {
			reqs = append(reqs, pipeline.Request{Name: fmt.Sprintf("cold%d", k), Source: srcs[k], N: paperN})
		}
		opt.Cache = pipeline.NewCache()
		batch, err := pipeline.RunContext(context.Background(), reqs, opt)
		if err != nil {
			return err
		}
		for i := range batch.Loops {
			r := &batch.Loops[i]
			a, err := libAnswers(r)
			if err != nil {
				return fmt.Errorf("reference pass: %s: %w", r.Name, err)
			}
			if err := verifySchedules(r); err != nil {
				return fmt.Errorf("reference pass: %w", err)
			}
			ref[reqs[i].Source] = a
			served = append(served, a)
		}
		sample = append(sample, batch.Loops[0], batch.Loops[1])
	}
	b.memCheckSample(sample, memSample)
	b.paperFigures(served)

	budget := time.Duration(b.seconds * float64(time.Second))
	if b.trace {
		budget /= 3
	}
	dr := b.driveCold(srcs, order, ref, budget)
	if dr.hitFrac > 0.01 {
		b.problem("cold-batch cache-hit share %.4f, want ~0: the workload no longer measures scheduling", dr.hitFrac)
	}
	if b.trace {
		return traceLayers(b, nil, srcs, layerCounters{hitFrac: dr.hitFrac, timeMissFrac: dr.timeMissFrac})
	}
	b.set("setup_s", setup.Seconds(), "s")
	return nil
}

// coldDrive is what one timed cold-batch drive measured.
type coldDrive struct {
	hitFrac, timeMissFrac float64
}

// driveCold runs nproc callers over the corpus in order, one loop per
// pipeline.RunContext call, until budget has passed, comparing every answer
// with the reference.
func (b *bench) driveCold(srcs []string, order []int, ref map[string][]answer, budget time.Duration) coldDrive {
	type callerOut struct {
		lat                    []time.Duration
		answers, degraded, bad int
		hits, misses, sims     int64
		errs                   []string
	}
	outs := make([]callerOut, b.nproc)
	var next atomic.Int64
	var mu sync.Mutex
	caches := map[int64]*pipeline.Cache{}
	cacheFor := func(batch int64) *pipeline.Cache {
		mu.Lock()
		defer mu.Unlock()
		c := caches[batch]
		if c == nil {
			c = pipeline.NewCache()
			caches[batch] = c
			delete(caches, batch-2)
		}
		return c
	}
	var wg sync.WaitGroup
	rss := startRSS()
	m0 := mallocs()
	start := time.Now()
	deadline := start.Add(budget)
	for c := 0; c < b.nproc; c++ {
		wg.Add(1)
		go func(out *callerOut) {
			defer wg.Done()
			opt := pipeline.Options{Workers: 1, Machines: dlx.PaperConfigs(), N: paperN}
			for time.Now().Before(deadline) {
				k := next.Add(1) - 1
				src := srcs[order[k%int64(len(order))]]
				opt.Cache = cacheFor(k / coldBatchLoops)
				req := []pipeline.Request{{Name: "cold", Source: src, N: paperN}}
				t := time.Now()
				batch, err := pipeline.RunContext(context.Background(), req, opt)
				out.lat = append(out.lat, time.Since(t))
				var got []answer
				if err == nil {
					out.hits += batch.Stats.CacheHits
					out.misses += batch.Stats.CacheMisses
					out.sims += batch.Stats.Stage(pipeline.StageSimulate).Count
					got, err = libAnswers(&batch.Loops[0])
				}
				if err == nil {
					err = sameAnswers(got, ref[src])
				}
				if err != nil {
					out.bad++
					if len(out.errs) < 5 {
						out.errs = append(out.errs, err.Error())
					}
					continue
				}
				for _, a := range got {
					out.answers++
					if a.Degraded {
						out.degraded++
					}
				}
			}
		}(&outs[c])
	}
	wg.Wait()
	elapsed := time.Since(start)
	allocs := mallocs() - m0
	peakRSS := rss()
	var lat []time.Duration
	var answers, degraded int
	var hits, misses, sims int64
	for _, o := range outs {
		lat = append(lat, o.lat...)
		answers += o.answers
		degraded += o.degraded
		hits += o.hits
		misses += o.misses
		sims += o.sims
		b.res.Attempted += len(o.lat)
		b.res.Failed += o.bad
		for _, e := range o.errs {
			b.problem("%s", e)
		}
	}
	var dr coldDrive
	if hits+misses > 0 {
		dr.hitFrac = float64(hits) / float64(hits+misses)
	}
	if answers > 0 {
		dr.timeMissFrac = float64(sims) / float64(answers)
	}
	info("cold-batch: %d loops in %.2fs; cache hits %d of %d lookups (share %.4f)",
		len(lat), elapsed.Seconds(), hits, hits+misses, dr.hitFrac)
	if b.trace {
		return dr
	}
	b.set("loops_per_s", float64(len(lat))/elapsed.Seconds(), "1/s")
	b.latencies(lat)
	b.set("allocs_per_op", float64(allocs)/float64(len(lat)), "count")
	b.set("peak_rss_mb", peakRSS, "MB")
	b.set("ok_frac", 1-float64(b.res.Failed)/float64(b.res.Attempted), "frac")
	b.set("primary_frac", 1-float64(degraded)/math.Max(1, float64(answers)), "frac")
	return dr
}

// coldSetup times the batch pipeline's start-up: options, a fresh cache and
// worker pool, and the first results of a warm-up batch of loops, all
// compiled from scratch. It is the time until a batch run that starts cold
// has its first results, as a compiler invoking the pipeline waits for them.
func coldSetup(b *bench, srcs []string, warm []int) (time.Duration, error) {
	reqs := make([]pipeline.Request, len(warm))
	for i, k := range warm {
		reqs[i] = pipeline.Request{Name: fmt.Sprintf("warm%d", k), Source: srcs[k], N: paperN}
	}
	var ts []time.Duration
	for i := 0; i < coldSetupReps; i++ {
		t := time.Now()
		opt := pipeline.Options{Workers: b.nproc, Machines: dlx.PaperConfigs(), N: paperN, Cache: pipeline.NewCache()}
		batch, err := pipeline.RunContext(context.Background(), reqs, opt)
		ts = append(ts, time.Since(t))
		if err != nil {
			return 0, err
		}
		if err := batch.FirstErr(); err != nil {
			return 0, fmt.Errorf("warm-up batch: %w", err)
		}
	}
	return medianDur(ts), nil
}
