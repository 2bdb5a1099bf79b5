// Package faults is a seeded, deterministic fault injector for the batch
// scheduling service. It exists so the hardened execution layer —
// cancellation, panic isolation, verified-schedule fallback — can be driven
// through every failure path on demand, under the race detector, with
// reproducible results.
//
// The injector decides whether to fire a fault for a probe site purely from
// (seed, stage, name): the decision is a hash, not a random stream, so it is
// independent of goroutine interleaving and call order. Two runs of the same
// batch with the same seed inject exactly the same faults at exactly the
// same requests, which is what lets the chaos tests assert metrics counters
// (panics, fallbacks, timeouts) against the injection plan *exactly*.
//
// A probe site is a (stage, name) pair: the stage is one of the pipeline's
// probe points ("compile", "schedule", "simulate", "cache", or a pass name),
// the name identifies the request. Wire the injector through
// pipeline.Options.FaultHook / passes.Options.FaultHook via Hook:
//
//	in := faults.New(faults.Plan{Seed: 7, Error: 0.05, Panic: 0.02})
//	batch, _ := pipeline.Run(reqs, pipeline.Options{FaultHook: in.Hook()})
//	fmt.Println(in.Counts())
package faults

import (
	"errors"
	"fmt"
	"hash/fnv"
	"sync/atomic"
	"time"
)

// Kind enumerates the injectable faults.
type Kind int

// The fault kinds. Error, Panic and Delay can fire at any stage; Corrupt
// fires only at the "cache" stage (the consumer drops the cached entry and
// recomputes); Budget fires only at the "simulate" stage (the consumer
// reports simulator cycle-budget exhaustion). The disk-io kinds fire at the
// disk tier's probe points: DiskFail fails the operation outright (both
// stages), DiskShortWrite truncates a write ("disk-write" only), and
// DiskCorrupt flips bytes in the returned data ("disk-read" only) — the
// store's checksums must catch the latter two. NetDelay stalls a network
// handler ("net" only), modelling a slow client or congested accept path.
const (
	Error Kind = iota
	Panic
	Delay
	Corrupt
	Budget
	DiskFail
	DiskShortWrite
	DiskCorrupt
	NetDelay
	numKinds
)

// Stage names the pipeline probes with; collected here so plans and tests
// spell them consistently.
const (
	StageCompile  = "compile"
	StageSchedule = "schedule"
	StageSimulate = "simulate"
	StageCache    = "cache"
	// StageFallback is probed once per degraded machine result, before
	// the verified program-order fallback is built.
	StageFallback = "fallback"
	// StageDiskWrite and StageDiskRead are the disk tier's probe points,
	// fired once per entry written respectively read back.
	StageDiskWrite = "disk-write"
	StageDiskRead  = "disk-read"
	// StageNet is the scheduling daemon's per-request network probe.
	StageNet = "net"
)

// String names the kind.
func (k Kind) String() string {
	switch k {
	case Error:
		return "error"
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Corrupt:
		return "corrupt"
	case Budget:
		return "budget"
	case DiskFail:
		return "disk-fail"
	case DiskShortWrite:
		return "disk-short-write"
	case DiskCorrupt:
		return "disk-corrupt"
	case NetDelay:
		return "net-delay"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Injected is the error returned (or panicked) by a fired fault.
type Injected struct {
	Stage string
	Name  string
	Kind  Kind
}

// Error renders the injected fault.
func (e *Injected) Error() string {
	switch e.Kind {
	case Corrupt:
		return fmt.Sprintf("faults: corrupted cache entry for %s", e.Name)
	case Budget:
		return fmt.Sprintf("faults: simulator cycle budget exhausted for %s (injected)", e.Name)
	case DiskFail, DiskShortWrite, DiskCorrupt:
		return fmt.Sprintf("faults: injected %s at %s of %s", e.Kind, e.Stage, e.Name)
	}
	return fmt.Sprintf("faults: injected %s at %s stage of %s", e.Kind, e.Stage, e.Name)
}

// DiskFaultKind reports the disk-behavior this fault requests from a disk
// tier probe: "fail" (the operation errors outright), "short-write" (the
// write is truncated mid-payload) or "corrupt-read" (bytes read back are
// flipped). It returns "" for every non-disk kind. The disk store asserts
// for this method with a locally declared interface, so the two packages
// stay import-decoupled just like the stage-name constants.
func (e *Injected) DiskFaultKind() string {
	switch e.Kind {
	case DiskFail:
		return "fail"
	case DiskShortWrite:
		return "short-write"
	case DiskCorrupt:
		return "corrupt-read"
	}
	return ""
}

// IsInjected reports whether err originates from an injector, returning the
// fault when it does.
func IsInjected(err error) (*Injected, bool) {
	var inj *Injected
	if errors.As(err, &inj) {
		return inj, true
	}
	return nil, false
}

// Plan configures an injector: a seed and one firing probability per kind.
// Probabilities are clamped to [0, 1] and partition the hash space, so the
// kinds are mutually exclusive at one probe site and their rates must sum to
// at most 1 (New rejects plans that oversubscribe).
type Plan struct {
	// Seed selects the deterministic fault pattern.
	Seed uint64
	// Error, Panic, Delay, Corrupt and Budget are per-probe firing
	// probabilities of each kind.
	Error, Panic, Delay, Corrupt, Budget float64
	// DiskFail, DiskShortWrite and DiskCorrupt are the disk tier's
	// per-probe firing probabilities; NetDelay the daemon's network-stall
	// probability.
	DiskFail, DiskShortWrite, DiskCorrupt, NetDelay float64
	// DelayFor is how long a Delay fault sleeps (default 25ms).
	DelayFor time.Duration
	// Stages, when non-empty, restricts injection to the named stages.
	Stages []string
}

func (p Plan) rates() [numKinds]float64 {
	clamp := func(v float64) float64 {
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	return [numKinds]float64{
		Error:          clamp(p.Error),
		Panic:          clamp(p.Panic),
		Delay:          clamp(p.Delay),
		Corrupt:        clamp(p.Corrupt),
		Budget:         clamp(p.Budget),
		DiskFail:       clamp(p.DiskFail),
		DiskShortWrite: clamp(p.DiskShortWrite),
		DiskCorrupt:    clamp(p.DiskCorrupt),
		NetDelay:       clamp(p.NetDelay),
	}
}

// Counts is a snapshot of fired faults per kind.
type Counts struct {
	Errors, Panics, Delays, Corrupts, Budgets int64
	DiskFails, DiskShortWrites, DiskCorrupts  int64
	NetDelays                                 int64
}

// Total sums the fired faults.
func (c Counts) Total() int64 {
	return c.Errors + c.Panics + c.Delays + c.Corrupts + c.Budgets +
		c.DiskFails + c.DiskShortWrites + c.DiskCorrupts + c.NetDelays
}

// String renders the counts.
func (c Counts) String() string {
	return fmt.Sprintf("errors=%d panics=%d delays=%d corrupts=%d budgets=%d disk-fails=%d disk-short-writes=%d disk-corrupts=%d net-delays=%d",
		c.Errors, c.Panics, c.Delays, c.Corrupts, c.Budgets,
		c.DiskFails, c.DiskShortWrites, c.DiskCorrupts, c.NetDelays)
}

// Injector injects faults per its Plan. Safe for concurrent use; decisions
// are pure functions of (seed, stage, name) while the fired-fault counters
// are atomics.
type Injector struct {
	plan   Plan
	rates  [numKinds]float64
	stages map[string]bool
	fired  [numKinds]atomic.Int64
}

// New builds an injector for the plan.
func New(plan Plan) (*Injector, error) {
	rates := plan.rates()
	sum := 0.0
	for _, r := range rates {
		sum += r
	}
	if sum > 1 {
		return nil, fmt.Errorf("faults: kind probabilities sum to %.3f > 1", sum)
	}
	if plan.DelayFor <= 0 {
		plan.DelayFor = 25 * time.Millisecond
	}
	in := &Injector{plan: plan, rates: rates}
	if len(plan.Stages) > 0 {
		in.stages = make(map[string]bool, len(plan.Stages))
		for _, s := range plan.Stages {
			in.stages[s] = true
		}
	}
	return in, nil
}

// MustNew is New panicking on a bad plan, for tests.
func MustNew(plan Plan) *Injector {
	in, err := New(plan)
	if err != nil {
		panic(err)
	}
	return in
}

// kindAllowed gates stage-specific kinds: cache corruption only makes sense
// at a cache probe, budget exhaustion only at a simulate probe, the disk-io
// kinds only at the disk tier's probes (a short write has no meaning on a
// read and vice versa), and network delays only at the daemon's net probe.
func kindAllowed(k Kind, stage string) bool {
	switch k {
	case Corrupt:
		return stage == StageCache
	case Budget:
		return stage == StageSimulate
	case DiskFail:
		return stage == StageDiskWrite || stage == StageDiskRead
	case DiskShortWrite:
		return stage == StageDiskWrite
	case DiskCorrupt:
		return stage == StageDiskRead
	case NetDelay:
		return stage == StageNet
	}
	return true
}

// mix64 is the standard 64-bit finalizer (xor-shift / multiply rounds):
// every input bit avalanches into every output bit.
func mix64(x uint64) uint64 {
	x ^= x >> 33
	x *= 0xff51afd7ed558ccd
	x ^= x >> 33
	x *= 0xc4ceb9fe1a85ec53
	x ^= x >> 33
	return x
}

// Decide returns the fault the plan fires at (stage, name), if any. It is a
// pure function of the seed and the arguments — chaos tests call it to
// precompute the expected outcome of every request before running the batch.
func (in *Injector) Decide(stage, name string) (Kind, bool) {
	if in.stages != nil && !in.stages[stage] {
		return 0, false
	}
	h := fnv.New64a()
	var seed [8]byte
	for i := 0; i < 8; i++ {
		seed[i] = byte(in.plan.Seed >> (8 * i))
	}
	h.Write(seed[:])
	h.Write([]byte(stage))
	h.Write([]byte{0})
	h.Write([]byte(name))
	// FNV's high bits avalanche poorly over short, near-identical keys
	// ("loop0".."loop199"), so finish with a 64-bit mixer before taking the
	// top 53 bits as a uniform [0, 1) draw.
	u := float64(mix64(h.Sum64())>>11) / (1 << 53)
	acc := 0.0
	for k := Kind(0); k < numKinds; k++ {
		acc += in.rates[k]
		if u < acc {
			if !kindAllowed(k, stage) {
				return 0, false
			}
			return k, true
		}
	}
	return 0, false
}

// Probe fires the planned fault for (stage, name): Panic faults panic with
// an *Injected value, Delay and NetDelay faults sleep for Plan.DelayFor and
// return nil, and the remaining kinds return an *Injected error (the
// disk-io behavioral kinds are interpreted by the disk store through
// Injected.DiskFaultKind). Probes with no planned fault return nil. Every
// fired fault is counted.
func (in *Injector) Probe(stage, name string) error {
	k, ok := in.Decide(stage, name)
	if !ok {
		return nil
	}
	in.fired[k].Add(1)
	inj := &Injected{Stage: stage, Name: name, Kind: k}
	switch k {
	case Panic:
		panic(inj)
	case Delay, NetDelay:
		time.Sleep(in.plan.DelayFor)
		return nil
	}
	return inj
}

// Hook adapts the injector to the pipeline/pass-manager fault-hook
// signature.
func (in *Injector) Hook() func(stage, name string) error { return in.Probe }

// Counts snapshots the fired-fault counters.
func (in *Injector) Counts() Counts {
	return Counts{
		Errors:          in.fired[Error].Load(),
		Panics:          in.fired[Panic].Load(),
		Delays:          in.fired[Delay].Load(),
		Corrupts:        in.fired[Corrupt].Load(),
		Budgets:         in.fired[Budget].Load(),
		DiskFails:       in.fired[DiskFail].Load(),
		DiskShortWrites: in.fired[DiskShortWrite].Load(),
		DiskCorrupts:    in.fired[DiskCorrupt].Load(),
		NetDelays:       in.fired[NetDelay].Load(),
	}
}
