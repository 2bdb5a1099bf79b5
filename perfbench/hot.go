package main

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"sync"
	"time"

	"doacross/internal/pipeline"
	"doacross/internal/server"
)

// hotLoops is the hot-serve working set: about 10^3 distinct loops, large
// enough that the restart (LoadDisk re-verifying every entry) is a
// measurable set-up time. They are all Perfect-profile loops (taken from
// hotRounds rounds of the pool): loopgen loops vary so much in T from seed
// to seed that even a quarter of them moved the working set's T geomean by
// ±3%.
const (
	hotLoops  = 1000
	hotRounds = 12
)

// hotZipfS is the popularity skew of the working set (Zipf exponent).
const hotZipfS = 1.1

// baselineSeconds is how long the client-only baseline runs.
const baselineSeconds = 1

// runHot is the hot-serve workload: an in-process scheduld restarted from
// a disk tier that holds the whole working set, so every timed request is
// a cache hit, serves a closed loop of nproc clients drawing loops with
// skewed popularity.
func runHot(b *bench) error {
	p, err := loadPool()
	if err != nil {
		return err
	}
	srcs, err := p.corpus(b.seed, hotRounds, hotLoops)
	if err != nil {
		return err
	}
	reqs := make([]pipeline.Request, len(srcs))
	bodies := make([][]byte, len(srcs))
	calls := make([][]byte, len(srcs))
	for i, src := range srcs {
		reqs[i] = pipeline.Request{Name: fmt.Sprintf("hot%d", i), Source: src, N: paperN}
		bodies[i] = encodeRequest(reqs[i].Name, src, paperN)
		calls[i] = encodeCall(reqs[i].Name, bodies[i])
	}
	dir, err := b.workDir("hot-disk")
	if err != nil {
		return err
	}
	batch, err := fillDisk(b, dir, reqs)
	if err != nil {
		return err
	}
	ref := make([][]answer, len(srcs))
	for i := range batch.Loops {
		ref[i], _ = libAnswers(&batch.Loops[i])
	}
	b.memCheckSample(batch.Loops, memSample)
	b.paperFigures(ref)
	entries := len(srcs) * len(serveOptions().Machines)

	d, setup, err := restartDaemon(dir, entries)
	if err != nil {
		return err
	}
	defer d.stop()
	info("hot-serve: %d loops, %d disk entries, restart %.3fs (median of %d), %d closed-loop clients, Zipf s=%.2f",
		len(srcs), entries, setup.Seconds(), restartReps, b.nproc, hotZipfS)

	recs, err := b.recordAnswers(d.addr, calls, ref)
	if err != nil {
		return err
	}
	budget := time.Duration(b.seconds * float64(time.Second))
	if b.trace {
		budget /= 3
	}
	st0, err := d.stats()
	if err != nil {
		return err
	}
	ps0 := d.srv.Metrics().Stats()
	dr := b.driveHot(d, calls, recs, ref, budget)
	st1, err := d.stats()
	if err != nil {
		return err
	}
	coalesced, shed := serveCounters(st0.Server, st1.Server)
	hit, timeMiss := pipelineShares(ps0, d.srv.Metrics().Stats(), dr.answers)
	info("hot-serve shares: served cache_hit %.4f, pipeline hit %.4f, time-miss %.4f, coalesced %.4f, shed %.4f",
		dr.hitFrac, hit, timeMiss, coalesced, shed)
	if dr.hitFrac < 0.999 {
		b.problem("hot-serve cache-hit share %.4f, want ~1: requests are not all served from the restarted cache", dr.hitFrac)
	}
	if b.trace {
		return traceLayers(b, d, srcs, layerCounters{
			hitFrac: hit, timeMissFrac: timeMiss, coalescedFrac: coalesced, shedFrac: shed,
			diskWriteErrors: float64(st1.Disk.WriteErrors),
		})
	}
	base, err := b.clientBaseline(bodies, calls, recs, ref)
	if err != nil {
		return err
	}
	info("hot-serve allocations per request: process %.1f, client-only baseline %.1f, daemon %.1f",
		dr.allocsPerOp, base, dr.allocsPerOp-base)
	b.set("allocs_per_op", dr.allocsPerOp-base, "count")
	b.set("setup_s", setup.Seconds(), "s")
	return nil
}

// hotDrive is what one closed-loop drive measured.
type hotDrive struct {
	answers     int
	hitFrac     float64
	allocsPerOp float64 // the whole process's, harness included
}

// clientOut is what one closed-loop client saw.
type clientOut struct {
	lat                          []time.Duration
	answers, hits, degraded, bad int
	errs                         []string
}

// recorded is the daemon's answer to one call, checked against the
// library's: a timed answer with the same bytes needs no decoding.
type recorded struct {
	body                     []byte
	machines, hits, degraded int
}

// recordAnswers sends every call to the daemon once and checks each answer
// against the library's.
func (b *bench) recordAnswers(addr string, calls [][]byte, ref [][]answer) ([]recorded, error) {
	cn, err := dial(addr)
	if err != nil {
		return nil, err
	}
	defer cn.close()
	recs := make([]recorded, len(calls))
	for k, call := range calls {
		status, body, err := cn.do(call)
		if err != nil {
			return nil, fmt.Errorf("record hot%d: %w", k, err)
		}
		sr, err := decodeAnswer(status, body)
		if err == nil {
			err = sameAnswers(served(sr), ref[k])
		}
		if err != nil {
			b.fail("hot%d: %v", k, err)
			continue
		}
		recs[k] = recorded{body: bytes.Clone(body), machines: len(sr.Machines)}
		for _, m := range sr.Machines {
			if m.CacheHit {
				recs[k].hits++
			}
			if m.Degraded {
				recs[k].degraded++
			}
		}
	}
	return recs, nil
}

// closedLoop runs nproc closed-loop clients against addr until deadline.
// Each client waits for its reply before sending the next request, as a
// compiler calling the service would, and checks every answer: one with
// the bytes of its recorded answer equals the library's; any other is
// decoded and compared. Clients draw loops with Zipf popularity; perm maps
// popularity rank to working-set index.
func (b *bench) closedLoop(addr string, calls [][]byte, recs []recorded, ref [][]answer, deadline time.Time) []clientOut {
	perm := rand.New(rand.NewSource(int64(mix(b.seed ^ 0x4075)))).Perm(len(calls))
	outs := make([]clientOut, b.nproc)
	var wg sync.WaitGroup
	for c := 0; c < b.nproc; c++ {
		wg.Add(1)
		go func(c int, out *clientOut) {
			defer wg.Done()
			cn, err := dial(addr)
			if err != nil {
				out.bad++
				out.errs = append(out.errs, err.Error())
				return
			}
			defer cn.close()
			r := rand.New(rand.NewSource(int64(mix(b.seed ^ uint64(c+1)*0x51))))
			z := rand.NewZipf(r, hotZipfS, 1, uint64(len(calls)-1))
			for time.Now().Before(deadline) {
				k := perm[z.Uint64()]
				t := time.Now()
				status, body, err := cn.do(calls[k])
				out.lat = append(out.lat, time.Since(t))
				rec := &recs[k]
				if err == nil && status == http.StatusOK && rec.body != nil && bytes.Equal(body, rec.body) {
					out.answers += rec.machines
					out.hits += rec.hits
					out.degraded += rec.degraded
					continue
				}
				var sr *server.ScheduleResponse
				if err == nil {
					sr, err = decodeAnswer(status, body)
				}
				if err == nil {
					err = sameAnswers(served(sr), ref[k])
					for _, m := range sr.Machines {
						out.answers++
						if m.CacheHit {
							out.hits++
						}
						if m.Degraded {
							out.degraded++
						}
					}
				}
				if err != nil {
					out.bad++
					if len(out.errs) < 5 {
						out.errs = append(out.errs, fmt.Sprintf("hot%d: %v", k, err))
					}
				}
			}
		}(c, &outs[c])
	}
	wg.Wait()
	return outs
}

// driveHot drives the daemon with closed-loop clients for budget.
func (b *bench) driveHot(d *daemon, calls [][]byte, recs []recorded, ref [][]answer, budget time.Duration) hotDrive {
	rss := startRSS()
	m0 := mallocs()
	start := time.Now()
	outs := b.closedLoop(d.addr, calls, recs, ref, start.Add(budget))
	elapsed := time.Since(start)
	allocs := mallocs() - m0
	peakRSS := rss()
	var lat []time.Duration
	var answers, hits, degraded int
	for _, o := range outs {
		lat = append(lat, o.lat...)
		answers += o.answers
		hits += o.hits
		degraded += o.degraded
		b.res.Attempted += len(o.lat)
		b.res.Failed += o.bad
		for _, e := range o.errs {
			b.problem("%s", e)
		}
	}
	dr := hotDrive{answers: answers, allocsPerOp: float64(allocs) / math.Max(1, float64(len(lat)))}
	if answers > 0 {
		dr.hitFrac = float64(hits) / float64(answers)
	}
	info("hot-serve: %d requests in %.2fs", len(lat), elapsed.Seconds())
	if b.trace {
		return dr
	}
	b.set("loops_per_s", float64(len(lat))/elapsed.Seconds(), "1/s")
	b.latencies(lat)
	b.set("peak_rss_mb", peakRSS, "MB")
	b.set("ok_frac", 1-float64(b.res.Failed)/float64(b.res.Attempted), "frac")
	b.set("primary_frac", 1-float64(degraded)/math.Max(1, float64(answers)), "frac")
	return dr
}

// clientBaseline returns the allocations per request that the harness
// itself makes: the same closed-loop clients and answer checks against a
// loopback replay server that answers each request with the daemon's
// recorded answer. A mismatch here is a harness fault.
func (b *bench) clientBaseline(bodies, calls [][]byte, recs []recorded, ref [][]answer) (float64, error) {
	answers := make([][]byte, len(recs))
	for k := range recs {
		answers[k] = recs[k].body
	}
	r, err := startReplay(bodies, answers)
	if err != nil {
		return 0, err
	}
	defer r.stop()
	m0 := mallocs()
	outs := b.closedLoop(r.addr, calls, recs, ref, time.Now().Add(baselineSeconds*time.Second))
	allocs := mallocs() - m0
	n := 0
	for _, o := range outs {
		n += len(o.lat)
		if o.bad > 0 {
			return 0, fmt.Errorf("client baseline: %s", o.errs[0])
		}
	}
	if n == 0 {
		return 0, fmt.Errorf("client baseline: no requests completed")
	}
	return float64(allocs) / float64(n), nil
}
