package pipeline

import (
	"context"
	"crypto/sha256"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"doacross/internal/dfg"
	"doacross/internal/dlx"
	"doacross/internal/passes"
)

// RequestKey fingerprints the complete scheduling problem one request poses
// under opt: the loop source, the compile options, the scheduler options
// (backend included), the machines, the trip count and the simulation
// window. Two requests with equal keys are guaranteed interchangeable — the
// pipeline would compute byte-identical results for both — which makes the
// key the content address concurrent identical requests coalesce on
// (Group) and the daemon's response-identity. A caller keying many
// requests under one option set renders the options once with NewKeys.
func RequestKey(req Request, opt Options) dfg.Fingerprint {
	return NewKeys(opt).Request(req)
}

// RequestSpans is the number of observer spans one request of a
// single-request batch under opt records at most: the batch and request
// spans, the compile stage and one span per compilation pass, and a
// schedule, verify and simulate stage per machine. A recorder of this
// capacity holds a request's whole span tree without wrapping.
func RequestSpans(opt Options) int {
	return 3 + len(passes.New(opt.Compile).Names()) + 3*len(opt.machines())
}

// salts are the option-derived strings of the pipeline's compile-memo,
// schedule, time and disk keys, rendered once per RunContext (or LoadDisk)
// instead of once per request and machine. The trip-count/window and
// exact-backend salts are kept at the default trip count and rendered on
// demand for any other.
type salts struct {
	compile string // Options.compileSalt
	sched   string // Options.salt
	window  int
	exact   bool // the exact backend is selected
	exactN  int  // Compile.Exact.N
	n       int  // the default trip count, and its salts:
	nw      string
	exactAt string
}

func newSalts(opt Options) salts {
	k := salts{
		compile: opt.compileSalt(), sched: opt.salt(), window: opt.Window,
		exact: opt.backendName() == "exact", exactN: opt.Compile.Exact.N, n: opt.n(),
	}
	k.nw = k.renderNW(k.n)
	k.exactAt = k.renderExact(k.n)
	return k
}

// nwSalt is the trip-count/window salt of the time and disk keys.
func (k *salts) nwSalt(n int) string {
	if n == k.n {
		return k.nw
	}
	return k.renderNW(n)
}

// renderNW renders "n=%d w=%d".
func (k *salts) renderNW(n int) string {
	b := make([]byte, 0, 24)
	b = strconv.AppendInt(append(b, "n="...), int64(n), 10)
	b = strconv.AppendInt(append(b, " w="...), int64(k.window), 10)
	return string(b)
}

// exactSalt returns the extra cache-key salt of exact-backend scheduling
// problems ("" for every other backend): the objective's trip count changes
// which schedule is optimal, so it must split the key space. The node budget
// is deliberately NOT part of the key — only proven-optimal results are ever
// published, and those are budget-invariant (a completed search returns the
// same schedule under any budget large enough to complete).
func (k *salts) exactSalt(n int) string {
	if n == k.n {
		return k.exactAt
	}
	return k.renderExact(n)
}

// renderExact renders "exactN=%d" for the exact backend.
func (k *salts) renderExact(n int) string {
	if !k.exact {
		return ""
	}
	if k.exactN != 0 {
		n = k.exactN
	}
	return "exactN=" + strconv.Itoa(n)
}

// schedKey is the schedule-cache key of graph fp on cfg; exSalt is the
// exact backend's trip-count salt ("" for every other backend, which keeps
// it out of the key).
func (k *salts) schedKey(fp dfg.Fingerprint, cfg dlx.Config, exSalt string) dfg.Fingerprint {
	if exSalt != "" {
		return dfg.KeyFrom(fp, cfg, "sched", k.sched, exSalt)
	}
	return dfg.KeyFrom(fp, cfg, "sched", k.sched)
}

// timeKey is the time-cache key of graph fp on cfg: the schedule key's
// coordinates plus the trip-count/window salt nw.
func (k *salts) timeKey(fp dfg.Fingerprint, cfg dlx.Config, nw, exSalt string) dfg.Fingerprint {
	return dfg.KeyFrom(fp, cfg, "time", k.sched, nw, exSalt)
}

// diskKey is the content address of a persisted entry: the time key's
// coordinates in a key space disjoint from the in-memory keys.
func (k *salts) diskKey(fp dfg.Fingerprint, cfg dlx.Config, nw, exSalt string) dfg.Fingerprint {
	return dfg.KeyFrom(fp, cfg, "disk", k.sched, nw, exSalt)
}

// Keys computes RequestKey for one option set, with every option-derived
// string — the machines included — rendered once by NewKeys. A Keys is
// immutable and safe for concurrent use.
type Keys struct {
	salts
	machines string // "m=%+v\x00" per machine, in order
	head     string // what the key hashes before the source, at the default trip count
}

// NewKeys renders opt's key salts.
func NewKeys(opt Options) *Keys {
	k := &Keys{salts: newSalts(opt)}
	var m strings.Builder
	for _, cfg := range opt.machines() {
		fmt.Fprintf(&m, "m=%+v\x00", cfg)
	}
	k.machines = m.String()
	k.head = k.renderHead(k.n)
	return k
}

// renderHead renders everything the request key hashes before the source.
func (k *Keys) renderHead(n int) string {
	return "request\x00" + k.compile + "\x00" + k.sched +
		"\x00" + k.nwSalt(n) + " x=" + k.exactSalt(n) + "\x00" + k.machines
}

// keyBufs recycles the buffers request keys are hashed from.
var keyBufs = sync.Pool{New: func() any { return new([]byte) }}

// Request is RequestKey(req, opt) for the options k was built from.
func (k *Keys) Request(req Request) dfg.Fingerprint {
	n := req.N
	if n == 0 {
		n = k.n
	}
	head := k.head
	if n != k.n {
		head = k.renderHead(n)
	}
	src := req.Source
	if req.Loop != nil {
		src = req.Loop.String()
	}
	bp := keyBufs.Get().(*[]byte)
	b := append(append((*bp)[:0], head...), src...)
	fp := dfg.Fingerprint(sha256.Sum256(b))
	*bp = b
	keyBufs.Put(bp)
	return fp
}

// Group coalesces concurrent identical computations by content-addressed
// key: among callers that Do the same key at the same time, exactly one
// (the leader) runs the function; the rest (followers) wait for its result.
// This is the homegrown singleflight of the scheduling daemon, with one
// addition the stock pattern lacks — per-flight deadline inheritance:
//
//   - The flight runs under its own context, detached from the leader's
//     cancellation: a leader whose client disconnects does not strand the
//     followers still waiting.
//   - The flight's deadline is the LATEST deadline among everyone who
//     joined (a joiner with no deadline lifts the bound entirely), extended
//     live as followers arrive. The flight works exactly as long as anyone
//     who asked for the result is still entitled to wait for it.
//   - Every caller waits under its OWN context: a follower with a short
//     timeout gets its deadline error on time even while the flight keeps
//     running for the others. A slow leader never strands followers past
//     their own timeouts.
//   - When the last waiter abandons, the flight is cancelled: nobody wants
//     the result anymore.
//
// The zero value is ready. All methods are safe for concurrent use.
type Group struct {
	mu      sync.Mutex
	flights map[dfg.Fingerprint]*flight
}

type flight struct {
	g    *Group
	key  dfg.Fingerprint
	done chan struct{}
	val  any
	err  error

	// The flight owns its detached context: it must outlive the leader
	// (followers keep the computation alive, extending the deadline), so it
	// cannot be threaded through any single caller's chain.
	ctx    context.Context //schedvet:allow flight-scoped context by design
	cancel context.CancelFunc

	mu        sync.Mutex
	waiters   int
	unbounded bool
	deadline  time.Time
	timer     *time.Timer
}

// Do returns the result of fn for key, coalescing with any in-flight
// computation of the same key. coalesced reports that this caller joined a
// flight another caller leads — the daemon's "duplicate work avoided"
// counter is the number of Do calls that return coalesced=true. fn runs
// under the flight's own context (see Group); err is either fn's error,
// shared by everyone who waited it out, or this caller's own ctx error if
// its context expired first.
func (g *Group) Do(ctx context.Context, key dfg.Fingerprint, fn func(context.Context) (any, error)) (v any, err error, coalesced bool) {
	g.mu.Lock()
	if f, ok := g.flights[key]; ok {
		f.join(ctx)
		g.mu.Unlock()
		v, err = f.wait(ctx)
		return v, err, true
	}
	if g.flights == nil {
		g.flights = make(map[dfg.Fingerprint]*flight)
	}
	f := &flight{g: g, key: key, done: make(chan struct{}), waiters: 1}
	f.ctx, f.cancel = context.WithCancel(context.WithoutCancel(ctx))
	f.extendDeadline(ctx)
	g.flights[key] = f
	g.mu.Unlock()
	go f.run(fn)
	v, err = f.wait(ctx)
	return v, err, false
}

// Stats reports the live flights and the callers currently waiting on them
// (leaders included) — the daemon's coalescing gauges, and what the
// deterministic coalescing tests poll to know every concurrent duplicate
// has joined before releasing the leader.
func (g *Group) Stats() (flights, waiters int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	for _, f := range g.flights {
		f.mu.Lock()
		flights++
		waiters += f.waiters
		f.mu.Unlock()
	}
	return flights, waiters
}

// run executes fn and publishes the outcome. The flight is removed from the
// group before done is closed, so a request arriving after completion
// starts a fresh flight instead of reading a stale one.
func (f *flight) run(fn func(context.Context) (any, error)) {
	defer func() {
		if r := recover(); r != nil {
			f.err = fmt.Errorf("pipeline: flight panicked: %v", r)
		}
		f.mu.Lock()
		if f.timer != nil {
			f.timer.Stop()
		}
		f.mu.Unlock()
		f.cancel()
		f.g.mu.Lock()
		delete(f.g.flights, f.key)
		f.g.mu.Unlock()
		close(f.done)
	}()
	f.val, f.err = fn(f.ctx)
}

// join registers one more waiter and inherits its deadline.
func (f *flight) join(ctx context.Context) {
	f.mu.Lock()
	f.waiters++
	f.mu.Unlock()
	f.extendDeadline(ctx)
}

// extendDeadline widens the flight's deadline to cover ctx's: the latest
// joined deadline wins, and a joiner with no deadline lifts the bound.
func (f *flight) extendDeadline(ctx context.Context) {
	d, ok := ctx.Deadline()
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.unbounded {
		return
	}
	if !ok {
		f.unbounded = true
		if f.timer != nil {
			f.timer.Stop()
		}
		return
	}
	if !d.After(f.deadline) && !f.deadline.IsZero() {
		return
	}
	f.deadline = d
	if f.timer == nil {
		f.timer = time.AfterFunc(time.Until(d), f.expire)
	} else {
		f.timer.Reset(time.Until(d))
	}
}

// expire fires when the flight's inherited deadline passes; a deadline
// extended after the timer was armed re-arms instead of cancelling.
func (f *flight) expire() {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.unbounded {
		return
	}
	if remaining := time.Until(f.deadline); remaining > 0 {
		f.timer.Reset(remaining)
		return
	}
	f.cancel()
}

// wait blocks until the flight completes or the caller's own context
// expires. An abandoning caller decrements the waiter count; the last one
// out cancels the flight.
func (f *flight) wait(ctx context.Context) (any, error) {
	select {
	case <-f.done:
		return f.val, f.err
	case <-ctx.Done():
		f.mu.Lock()
		f.waiters--
		last := f.waiters == 0
		f.mu.Unlock()
		if last {
			f.cancel()
		}
		return nil, ctx.Err()
	}
}
