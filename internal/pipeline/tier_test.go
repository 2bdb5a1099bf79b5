package pipeline

import (
	"context"
	"encoding/hex"
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"doacross/internal/core"
	"doacross/internal/dlx"
	"doacross/internal/faults"
)

// diskOpt builds the options of a disk-tier test run.
func diskOpt(cache *Cache, disk *DiskStore) Options {
	return Options{Cache: cache, Disk: disk, Workers: 2}
}

// coldRun populates a fresh store from the corpus and returns the batch.
func coldRun(t *testing.T, dir string, srcs []string) (*Batch, *DiskStore) {
	t.Helper()
	store, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	b := run(t, srcs, diskOpt(NewCache(), store))
	if err := b.FirstErr(); err != nil {
		t.Fatal(err)
	}
	if store.Len() == 0 {
		t.Fatal("cold run persisted nothing")
	}
	return b, store
}

// TestDiskTierWarmRestart is the service restart path: a second process
// opens the same directory, re-verifies and loads every entry, and then
// serves the whole corpus from memory — zero compiles, zero schedules,
// zero simulations in the request-time metrics.
func TestDiskTierWarmRestart(t *testing.T) {
	dir := t.TempDir()
	srcs := corpus(8)
	cold, store := coldRun(t, dir, srcs)
	entries := store.Len()

	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache2 := NewCache()
	ls, err := LoadDisk(context.Background(), store2, cache2, diskOpt(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Loaded != entries || ls.Corrupt != 0 || ls.Stale != 0 || ls.Errors != 0 {
		t.Fatalf("load stats = %s, want loaded=%d and nothing else", ls, entries)
	}

	metrics := NewMetrics()
	opt := diskOpt(cache2, store2)
	opt.Metrics = metrics
	warm := run(t, srcs, opt)
	if err := warm.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i := range warm.Loops {
		mr := warm.Loops[i].Machines[0]
		if !mr.CacheHit {
			t.Errorf("loop %d not served warm", i)
		}
		if err := mr.Sync.Validate(); err != nil {
			t.Errorf("loop %d warm schedule invalid: %v", i, err)
		}
		cold := cold.Loops[i].Machines[0]
		if mr.SyncTime != cold.SyncTime || mr.ListTime != cold.ListTime {
			t.Errorf("loop %d warm times (%d, %d) != cold (%d, %d)",
				i, mr.ListTime, mr.SyncTime, cold.ListTime, cold.SyncTime)
		}
	}
	st := metrics.Stats()
	for _, stage := range []string{StageSchedule, StageSimulate} {
		if n := st.Stage(stage).Count; n != 0 {
			t.Errorf("warm run executed %s %d times, want 0", stage, n)
		}
	}
	// The warm run re-persisted nothing: every problem was already on disk.
	if w := store2.Stats().Writes; w != 0 {
		t.Errorf("warm run wrote %d disk entries, want 0", w)
	}
}

// TestDiskTierCrashRecovery is the crash-safety satellite: after a cold
// run, one entry is bit-flipped and one truncated on disk (a torn write a
// crashed or lying disk could leave). The restarted loader must quarantine
// exactly those two — counted, bytes kept — and bring the rest up warm;
// re-running the corpus recomputes the two lost problems and heals the
// store back to full strength.
func TestDiskTierCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	srcs := corpus(8)
	_, store := coldRun(t, dir, srcs)
	entries := store.Len()
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < 3 {
		t.Fatalf("corpus persisted only %d entries", len(keys))
	}
	// Flip a payload byte of one entry, truncate another mid-payload.
	flip := store.path(keys[0])
	data, err := os.ReadFile(flip)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(flip, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(store.path(keys[1]), int64(diskHeaderSize+1)); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	cache2 := NewCache()
	ls, err := LoadDisk(context.Background(), store2, cache2, diskOpt(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Corrupt != 2 {
		t.Errorf("load stats = %s, want corrupt=2", ls)
	}
	if ls.Loaded != entries-2 {
		t.Errorf("load stats = %s, want loaded=%d", ls, entries-2)
	}
	if q := store2.Stats().Quarantined; q != 2 {
		t.Errorf("quarantined = %d, want 2", q)
	}

	// Healing: the same corpus recomputes the two quarantined problems (and
	// only those) and persists them again. One worker, so a repeated loop
	// shape cannot race two concurrent misses of the same problem.
	opt := diskOpt(cache2, store2)
	opt.Workers = 1
	metrics := NewMetrics()
	opt.Metrics = metrics
	warm := run(t, srcs, opt)
	if err := warm.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i := range warm.Loops {
		if err := warm.Loops[i].Machines[0].Sync.Validate(); err != nil {
			t.Errorf("loop %d served invalid schedule after recovery: %v", i, err)
		}
	}
	if store2.Len() != entries {
		t.Errorf("store healed to %d entries, want %d", store2.Len(), entries)
	}
	if n := metrics.Stats().Stage(StageSchedule).Count; n != 2 {
		t.Errorf("recovery run rescheduled %d problems, want exactly the 2 lost", n)
	}
}

// TestLoadDiskSkipsStale: entries persisted under different scheduling
// options are skipped, not loaded and not quarantined — they are valid
// answers to a different question.
func TestLoadDiskSkipsStale(t *testing.T) {
	dir := t.TempDir()
	_, store := coldRun(t, dir, corpus(4))
	entries := store.Len()

	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	opt := diskOpt(nil, nil)
	opt.Baseline = core.CriticalPath // a different scheduling salt
	ls, err := LoadDisk(context.Background(), store2, NewCache(), opt)
	if err != nil {
		t.Fatal(err)
	}
	if ls.Stale != entries || ls.Loaded != 0 || ls.Corrupt != 0 {
		t.Errorf("load stats = %s, want stale=%d loaded=0", ls, entries)
	}
}

// TestLoadDiskRefusesMismatchedKey: an entry refiled under another
// problem's key — valid checksum, valid payload — must fail the
// content-address audit and be quarantined, never served as the other
// problem's answer.
func TestLoadDiskRefusesMismatchedKey(t *testing.T) {
	dir := t.TempDir()
	_, store := coldRun(t, dir, corpus(4))
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < 2 {
		t.Fatal("need two entries")
	}
	// Refile entry 0's bytes under entry 1's key.
	data, err := os.ReadFile(store.path(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.path(keys[1]), data, 0o644); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	ls, err := LoadDisk(context.Background(), store2, NewCache(), diskOpt(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	if ls.Corrupt != 1 {
		t.Errorf("load stats = %s, want corrupt=1 (content-address mismatch)", ls)
	}
}

// TestDiskTierChaos: seeded disk-io faults on the write path (failed and
// torn writes) and the read path (failed and corrupt reads) never corrupt
// a served result: every request of every run returns the same times a
// disk-free run produces, and the loader's accounting covers every entry.
func TestDiskTierChaos(t *testing.T) {
	srcs := corpus(10)
	reference := run(t, srcs, Options{Workers: 2})
	if err := reference.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for seed := uint64(1); seed <= 3; seed++ {
		dir := t.TempDir()
		store, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		store.SetFaultHook(faults.MustNew(faults.Plan{
			Seed: seed, DiskFail: 0.2, DiskShortWrite: 0.3,
			Stages: []string{faults.StageDiskWrite},
		}).Probe)
		cold := run(t, srcs, diskOpt(NewCache(), store))
		if err := cold.FirstErr(); err != nil {
			t.Fatalf("seed %d: disk faults failed a request: %v", seed, err)
		}

		// Restart under read-path chaos: corrupt reads quarantine, failed
		// reads are left for the next load, and whatever survives is
		// verified.
		store2, err := OpenDiskStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		store2.SetFaultHook(faults.MustNew(faults.Plan{
			Seed: seed + 100, DiskFail: 0.2, DiskCorrupt: 0.2,
			Stages: []string{faults.StageDiskRead},
		}).Probe)
		cache2 := NewCache()
		ls, err := LoadDisk(context.Background(), store2, cache2, diskOpt(nil, nil))
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if ls.Loaded+ls.Stale+ls.Corrupt+ls.Errors != ls.Scanned {
			t.Errorf("seed %d: load accounting does not cover the scan: %s", seed, ls)
		}
		store2.SetFaultHook(nil)
		warm := run(t, srcs, diskOpt(cache2, store2))
		if err := warm.FirstErr(); err != nil {
			t.Fatalf("seed %d: warm run failed: %v", seed, err)
		}
		for i := range warm.Loops {
			w, r := warm.Loops[i].Machines[0], reference.Loops[i].Machines[0]
			if w.SyncTime != r.SyncTime || w.ListTime != r.ListTime {
				t.Errorf("seed %d loop %d: chaos-surviving times (%d, %d) != reference (%d, %d)",
					seed, i, w.ListTime, w.SyncTime, r.ListTime, r.SyncTime)
			}
			if err := w.Sync.Validate(); err != nil {
				t.Errorf("seed %d loop %d: invalid schedule served: %v", seed, i, err)
			}
		}
	}
}

// sameAnswer reports whether two machine results serve the same schedules
// (issue rows, cycles and method) and the same simulated times.
func sameAnswer(a, b MachineResult) bool {
	same := func(x, y *core.Schedule) bool {
		return x.Method == y.Method && reflect.DeepEqual(x.Rows, y.Rows) && slices.Equal(x.Cycle, y.Cycle)
	}
	return same(a.List, b.List) && same(a.Sync, b.Sync) &&
		a.ListTime == b.ListTime && a.SyncTime == b.SyncTime &&
		a.ListStalls == b.ListStalls && a.SyncStalls == b.SyncStalls &&
		a.ListSignals == b.ListSignals && a.SyncSignals == b.SyncSignals &&
		a.ListLBD == b.ListLBD && a.SyncLBD == b.SyncLBD &&
		a.ListLFD == b.ListLFD && a.SyncLFD == b.SyncLFD &&
		a.PredictedT == b.PredictedT
}

// TestLoadDiskMixedTier: one tier holding every kind of entry the loader
// sorts — good, stale, corrupt on disk, corrupt on read, failed on read,
// refiled under another key, malformed JSON, and rows that do not rebuild —
// loads with exact counts. The failed read stays on disk, every corrupt
// entry is quarantined, and the corpus is then served with answers
// bit-identical to a disk-free run's, recomputing only the lost problems.
func TestLoadDiskMixedTier(t *testing.T) {
	srcs := corpus(24)
	dir := t.TempDir()
	_, store := coldRun(t, dir, srcs)
	keys, err := store.Keys()
	if err != nil {
		t.Fatal(err)
	}
	if len(keys) < 8 {
		t.Fatalf("corpus persisted only %d entries", len(keys))
	}
	good := len(keys)

	// Stale: the same corpus scheduled under another baseline, filed in
	// the same tier.
	staleStore, err := OpenDiskStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := run(t, srcs, Options{Cache: NewCache(), Disk: staleStore, Workers: 2, Baseline: core.CriticalPath}).FirstErr(); err != nil {
		t.Fatal(err)
	}
	staleKeys, err := staleStore.Keys()
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range staleKeys {
		data, err := os.ReadFile(staleStore.path(k))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.MkdirAll(filepath.Dir(store.path(k)), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(store.path(k), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	// keys[0]: a flipped byte on disk.
	data, err := os.ReadFile(store.path(keys[0]))
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0x01
	if err := os.WriteFile(store.path(keys[0]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// keys[3]: keys[4]'s entry refiled under it.
	data, err = os.ReadFile(store.path(keys[4]))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(store.path(keys[3]), data, 0o644); err != nil {
		t.Fatal(err)
	}
	// keys[5]: a checksummed payload that is not JSON.
	if err := store.Put(keys[5], []byte(`{"name":`)); err != nil {
		t.Fatal(err)
	}
	// keys[6]: well-formed rows that schedule one instruction twice.
	payload, err := store.Get(keys[6])
	if err != nil {
		t.Fatal(err)
	}
	var p diskPayload
	if err := json.Unmarshal(payload, &p); err != nil {
		t.Fatal(err)
	}
	p.Sync.Rows = append(p.Sync.Rows, []int{0})
	if payload, err = json.Marshal(p); err != nil {
		t.Fatal(err)
	}
	if err := store.Put(keys[6], payload); err != nil {
		t.Fatal(err)
	}

	store2, err := OpenDiskStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	// keys[1] rots on the way in; reading keys[2] fails.
	rot, fail := hex.EncodeToString(keys[1][:8]), hex.EncodeToString(keys[2][:8])
	store2.SetFaultHook(func(stage, name string) error {
		switch name {
		case rot:
			return &faults.Injected{Stage: stage, Name: name, Kind: faults.DiskCorrupt}
		case fail:
			return &faults.Injected{Stage: stage, Name: name, Kind: faults.DiskFail}
		}
		return nil
	})
	cache := NewCache()
	ls, err := LoadDisk(context.Background(), store2, cache, diskOpt(nil, nil))
	if err != nil {
		t.Fatal(err)
	}
	want := LoadStats{Scanned: good + len(staleKeys), Loaded: good - 6, Stale: len(staleKeys), Corrupt: 5, Errors: 1}
	if ls != want {
		t.Errorf("load stats = %s, want %s", ls, want)
	}
	st := store2.Stats()
	if st.Corrupt != 5 || st.Quarantined != 5 || st.ReadErrors != 1 {
		t.Errorf("store counters corrupt=%d quarantined=%d read-errors=%d, want 5/5/1",
			st.Corrupt, st.Quarantined, st.ReadErrors)
	}
	for i, k := range keys[:7] {
		_, live := store2.stat(store2.path(k))
		_, quarantined := store2.stat(store2.quarantinePath(k))
		if wantLive := i == 2 || i == 4; live != wantLive || quarantined == wantLive {
			t.Errorf("keys[%d]: live=%v quarantined=%v, want live=%v", i, live, quarantined, wantLive)
		}
	}

	// One worker, so each lost problem is recomputed exactly once.
	reference := run(t, srcs, Options{Workers: 1})
	opt := diskOpt(cache, nil)
	opt.Workers = 1
	opt.Metrics = NewMetrics()
	warm := run(t, srcs, opt)
	if err := warm.FirstErr(); err != nil {
		t.Fatal(err)
	}
	for i := range warm.Loops {
		if w, r := warm.Loops[i].Machines[0], reference.Loops[i].Machines[0]; !sameAnswer(w, r) {
			t.Errorf("loop %d: warm answer differs from the disk-free one", i)
		}
	}
	if n := opt.Metrics.Stats().Stage(StageSchedule).Count; n != 6 {
		t.Errorf("warm run rescheduled %d problems, want the 6 not loaded", n)
	}
}

// TestLoadDiskCancel: a cancelled load returns ctx.Err() only once every
// worker has stopped reading, and a load under a context that is already
// done reads nothing.
func TestLoadDiskCancel(t *testing.T) {
	_, store := coldRun(t, t.TempDir(), corpus(24))
	entries := store.Len()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var inside, calls, late atomic.Int64
	var returned atomic.Bool
	store.SetFaultHook(func(stage, name string) error {
		if returned.Load() {
			late.Add(1)
		}
		inside.Add(1)
		defer inside.Add(-1)
		if calls.Add(1) == 3 {
			cancel()
		}
		time.Sleep(time.Millisecond)
		return nil
	})
	ls, err := LoadDisk(ctx, store, NewCache(), diskOpt(nil, nil))
	returned.Store(true)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if n := inside.Load(); n != 0 {
		t.Errorf("%d workers still reading when LoadDisk returned", n)
	}
	if ls.Loaded != 0 || ls.Scanned >= entries {
		t.Errorf("load stats = %s: the load went on past its cancelled read phase", ls)
	}
	time.Sleep(20 * time.Millisecond)
	if n := late.Load(); n != 0 {
		t.Errorf("%d reads after LoadDisk returned", n)
	}

	ls, err = LoadDisk(ctx, store, NewCache(), diskOpt(nil, nil))
	if !errors.Is(err, context.Canceled) || ls != (LoadStats{}) {
		t.Errorf("load under a done context = %s, %v; want nothing read, context.Canceled", ls, err)
	}
}

// TestLoadDiskPanicReachesCaller: an injected panic on the first disk read,
// raised in a load worker, reaches LoadDisk's caller, who can recover it,
// instead of crashing the process. The other workers, slowed down in their
// reads, finish the entry in hand and take no other.
func TestLoadDiskPanicReachesCaller(t *testing.T) {
	_, store := coldRun(t, t.TempDir(), corpus(24))
	in := faults.MustNew(faults.Plan{Panic: 1, Stages: []string{faults.StageDiskRead}})
	var reads atomic.Int64
	store.SetFaultHook(func(stage, name string) error {
		if reads.Add(1) == 1 {
			return in.Probe(stage, name)
		}
		time.Sleep(20 * time.Millisecond)
		return nil
	})
	r := func() (r any) {
		defer func() { r = recover() }()
		_, _ = LoadDisk(context.Background(), store, NewCache(), diskOpt(nil, nil))
		return nil
	}()
	if inj, ok := r.(*faults.Injected); !ok || inj.Stage != faults.StageDiskRead || inj.Kind != faults.Panic {
		t.Fatalf("recovered %v, want the injected disk-read panic", r)
	}
	n := reads.Load()
	if workers := int64(min(runtime.GOMAXPROCS(0), store.Len())); n > workers {
		t.Errorf("%d reads, want at most one per worker (%d)", n, workers)
	}
	time.Sleep(50 * time.Millisecond)
	if reads.Load() != n {
		t.Error("a worker went on reading after the panic reached the caller")
	}
}

// cancelAtCompile is a context that turns done, for good, the first time
// the pass manager checks it: a load sees its context cancelled exactly
// while it compiles a loop.
type cancelAtCompile struct {
	context.Context
	done atomic.Bool
}

func (c *cancelAtCompile) Err() error {
	if !c.done.Load() {
		pc := make([]uintptr, 1)
		runtime.Callers(2, pc)
		frame, _ := runtime.CallersFrames(pc).Next()
		if !strings.HasPrefix(frame.Function, "doacross/internal/passes.") {
			return nil
		}
		c.done.Store(true)
	}
	return context.Canceled
}

// TestLoadDiskCancelWhileCompiling: a load cancelled while it compiles
// returns the cancellation and quarantines nothing: a compilation cut
// short says nothing against the entries waiting on it.
func TestLoadDiskCancelWhileCompiling(t *testing.T) {
	_, store := coldRun(t, t.TempDir(), corpus(24))
	entries := store.Len()
	ctx := &cancelAtCompile{Context: context.Background()}
	ls, err := LoadDisk(ctx, store, NewCache(), diskOpt(nil, nil))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if ls.Loaded != 0 || ls.Corrupt != 0 || store.Stats().Quarantined != 0 || store.Len() != entries {
		t.Errorf("load stats = %s, %d quarantined, %d of %d entries left: the cancelled compile cost entries",
			ls, store.Stats().Quarantined, store.Len(), entries)
	}
}

// BenchmarkLoadDisk is a warm restart: LoadDisk of a tier holding
// corpus(64) on the paper's four machines into a fresh cache. Run it at
// -cpu 1,2 to see the load scale with its worker bound (GOMAXPROCS).
func BenchmarkLoadDisk(b *testing.B) {
	store, err := OpenDiskStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	opt := Options{Machines: dlx.PaperConfigs(), Workers: 2}
	fill := opt
	fill.Cache, fill.Disk = NewCache(), store
	batch, err := Run(reqsFor(corpus(64)), fill)
	if err != nil {
		b.Fatal(err)
	}
	if err := batch.FirstErr(); err != nil {
		b.Fatal(err)
	}
	want := store.Len()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ls, err := LoadDisk(context.Background(), store, NewCache(), opt)
		if err != nil || ls.Loaded != want {
			b.Fatalf("load = %s, %v; want %d loaded", ls, err, want)
		}
	}
}
