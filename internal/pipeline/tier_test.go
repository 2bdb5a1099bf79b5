package pipeline

import (
	"context"
	"os"
	"testing"

	"doacross/internal/core"
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
