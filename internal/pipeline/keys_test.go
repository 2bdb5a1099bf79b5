package pipeline

import (
	"context"
	"encoding/hex"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"doacross/internal/core"
	"doacross/internal/dfg"
	"doacross/internal/dlx"
)

// goldenKeys are fig1's content addresses as first written to caches and
// disk tiers: the request key, and per machine the schedule, time and disk
// keys. A change to any of them orphans every persisted entry and every
// client-visible response key, so they are pinned byte for byte.
var goldenKeys = []struct {
	name    string
	opt     Options
	dir     string // the disk tier under testdata/disk-v1 written with these options
	request string
	sched   []string
	time    []string
	disk    []string
}{
	{
		name:    "default",
		opt:     Options{},
		dir:     "default",
		request: "98d49f003398ea7fbbc40016431a1be6fdf1fa471defcfcd57bb05fbb88e84f1",
		sched:   []string{"3411b63809c5183df75fc9bb8b5db7a44caa9bb4c02edd89c88f8d37df5bb9da"},
		time:    []string{"c8cf32b21a8dbcf327a7455995961b2a82c0e317762f3b24ba4350d846c442b2"},
		disk:    []string{"bedae908a6c925b673ae3b296d05761c084247e25ed7f3bdc882d69ad0ef0536"},
	},
	{
		name:    "paper-w4-n50",
		opt:     Options{Machines: dlx.PaperConfigs(), Window: 4, N: 50},
		dir:     "paper-w4-n50",
		request: "e8b33aad5a7806ad91e3c6fb0be7e84ffeff12850b16b3cc0d179e2137f52285",
		sched: []string{
			"fb4cd4416e01c015fedce0a4b51a7e807ffdd15f3c0de58d167ff1316425c57f",
			"d9f6e3f3ace9e649d7d5256dd8a6f2d9108b4b5fd1c2517b6dbbc276057dc8b4",
			"3411b63809c5183df75fc9bb8b5db7a44caa9bb4c02edd89c88f8d37df5bb9da",
			"862c85d623473a4167dc65092ef4f41c489f2e43311c88d06f5f0539f9419f4b",
		},
		time: []string{
			"43dd78a48e9ce965c0180e34498e20da3017cbbab6a5a5600395c7167f33c67c",
			"ec2efb8a6961ba7ff733c3a15e3e6734389d040d3fa5b874936b0e9cf4c14b0d",
			"dd43df8011798335e7c22e57093af2b6daf6c4a76f2e6b190944c9fedc1b7548",
			"eacbbdc12c9708ec9e6715f28169231efbe95ff7b2886579e410a5e0d90aa4cf",
		},
		disk: []string{
			"1c11cc6d86767929e23857d3c71318aded59ac35288e64f5bd9faea0ba5322e6",
			"984acf11eb8ca71540b246370e9036f4bf246f010e43e63e986f9a87418991aa",
			"cc2e2fe27531512b088b90907c86612649f4a3059b06a80319c8e858f2bf4bcf",
			"c11e0a10004b133d1e87adf042e53c8b84b10880a6f45ffa9028ea70e49d5e9a",
		},
	},
}

func hexKey(k dfg.Fingerprint) string { return hex.EncodeToString(k[:]) }

func mustKey(t *testing.T, s string) dfg.Fingerprint {
	t.Helper()
	b, err := hex.DecodeString(s)
	if err != nil || len(b) != len(dfg.Fingerprint{}) {
		t.Fatalf("bad golden key %q", s)
	}
	return dfg.Fingerprint(b)
}

// TestGoldenKeys runs fig1 through a cached, disk-backed batch and checks
// every key it produces against the golden values: the request key, the
// compile-memo key, the schedule key of every machine, the time-cache
// entries and the names of the disk-tier entries written through.
func TestGoldenKeys(t *testing.T) {
	for _, tc := range goldenKeys {
		t.Run(tc.name, func(t *testing.T) {
			store, err := OpenDiskStore(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			opt := tc.opt
			opt.Cache = NewCache()
			opt.Disk = store
			req := Request{Name: "fig1", Source: fig1}
			if got := hexKey(RequestKey(req, opt)); got != tc.request {
				t.Errorf("RequestKey = %s, want %s", got, tc.request)
			}
			b, err := Run([]Request{req}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.FirstErr(); err != nil {
				t.Fatal(err)
			}
			const source = "613aeb042d96fbd0a7790d2908c6f2f43c5b34abd03ea57db11071eb59bd6f5e"
			if v, ok := opt.Cache.Get(mustKey(t, source)); !ok {
				t.Errorf("no compile-memo entry under %s", source)
			} else if _, ok := v.(*compileEntry); !ok {
				t.Errorf("compile-memo key %s holds %T", source, v)
			}
			for i, m := range b.Loops[0].Machines {
				if got := hexKey(m.Key); got != tc.sched[i] {
					t.Errorf("%s: schedule key = %s, want %s", m.Machine, got, tc.sched[i])
				}
				if v, ok := opt.Cache.Get(mustKey(t, tc.time[i])); !ok {
					t.Errorf("%s: no time entry under %s", m.Machine, tc.time[i])
				} else if _, ok := v.(*timeEntry); !ok {
					t.Errorf("%s: time key %s holds %T", m.Machine, tc.time[i], v)
				}
			}
			keys, err := store.Keys()
			if err != nil {
				t.Fatal(err)
			}
			var disk []string
			for _, k := range keys {
				disk = append(disk, hexKey(k))
			}
			slices.Sort(disk)
			want := slices.Clone(tc.disk)
			slices.Sort(want)
			if !slices.Equal(disk, want) {
				t.Errorf("disk keys = %v, want %v", disk, want)
			}
		})
	}
	// The exact backend's request key also covers the objective's trip
	// count salt.
	opt := Options{}
	opt.Compile.Backend = "exact"
	const exactKey = "3f0475f28be6b161f17ec0dee32468579b5a8b69f851a80c8e3bfa6239f11615"
	if got := hexKey(RequestKey(Request{Source: fig1}, opt)); got != exactKey {
		t.Errorf("exact RequestKey = %s, want %s", got, exactKey)
	}
}

// TestGoldenKeysAllKnobs pins the request key, and through it the salt
// strings, with every key-relevant option away from its default: the
// baseline priority, the compile passes and dumps, the exact backend's trip
// count, the window, the machines and non-default trip counts.
func TestGoldenKeysAllKnobs(t *testing.T) {
	opt := Options{Baseline: core.CriticalPath, Window: 3, N: 40, Machines: dlx.PaperConfigs()[1:3]}
	opt.Compile.Unroll = 2
	opt.Compile.Migrate = true
	opt.Compile.NoIfConvert = true
	opt.Compile.FlowOnly = true
	opt.Compile.Dump = []string{"parse", "graph"}
	opt.Compile.Backend = "exact"
	opt.Compile.Exact.N = 50
	if got, want := opt.salt(), "base=1 sync=false/false/false/false best=false backend=exact"; got != want {
		t.Errorf("salt = %q, want %q", got, want)
	}
	if got, want := opt.compileSalt(), "u=2 mig=true noif=true flow=true dump=parse,graph"; got != want {
		t.Errorf("compileSalt = %q, want %q", got, want)
	}
	keys := NewKeys(opt)
	for _, tc := range []struct {
		n    int
		want string
	}{
		{0, "c81847671d2c0f1936882441c6c749ecc2e2a5738241793c779523179f0bf073"},
		{40, "c81847671d2c0f1936882441c6c749ecc2e2a5738241793c779523179f0bf073"},
		{77, "13d0a4a930f8781f9ca7884e57560236beca93a9968c398b5da5e04c0ee7f21f"},
	} {
		req := Request{Source: fig1, N: tc.n}
		if got := hexKey(keys.Request(req)); got != tc.want {
			t.Errorf("n=%d: request key = %s, want %s", tc.n, got, tc.want)
		}
		if got := hexKey(RequestKey(req, opt)); got != tc.want {
			t.Errorf("n=%d: RequestKey = %s, want %s", tc.n, got, tc.want)
		}
	}
	opt.Compile.Exact.N = 0
	const want = "87a102031d57a9a1596635a965216acef09a872042b28d2071f0000464db21b0"
	if got := hexKey(RequestKey(Request{Source: fig1, N: 77}, opt)); got != want {
		t.Errorf("exact N from the request: RequestKey = %s, want %s", got, want)
	}
}

// TestSaltsMatchTheirFormats: the salts are rendered without fmt, byte for
// byte as the format strings they were first written with, over every
// combination of the knobs that enter them.
func TestSaltsMatchTheirFormats(t *testing.T) {
	for bits := 0; bits < 1<<8; bits++ {
		on := func(i int) bool { return bits&(1<<i) != 0 }
		var o Options
		o.Baseline = core.ListPriority(bits % 3)
		o.Compile.Backend = []string{"", "sync", "list", "exact"}[bits%4]
		o.Compile.Unroll = bits % 5
		o.Compile.Migrate, o.Compile.NoIfConvert, o.Compile.FlowOnly = on(5), on(6), on(7)
		o.Compile.Dump = [][]string{nil, {"parse"}, {"parse", "graph"}}[bits%3]
		o.Compile.Exact.N = []int{0, 50}[bits%2]
		o.Window = bits % 7
		want := fmt.Sprintf("base=%d sync=false/false/false/false best=false backend=%s", int(o.Baseline),
			o.backendName())
		if got := o.salt(); got != want {
			t.Fatalf("salt = %q, want %q", got, want)
		}
		want = fmt.Sprintf("u=%d mig=%v noif=%v flow=%v dump=%s", o.Compile.Unroll,
			o.Compile.Migrate, o.Compile.NoIfConvert, o.Compile.FlowOnly,
			strings.Join(o.Compile.Dump, ","))
		if got := o.compileSalt(); got != want {
			t.Fatalf("compileSalt = %q, want %q", got, want)
		}
		k := newSalts(o)
		for _, n := range []int{1, 100, 12345} {
			if got, want := k.nwSalt(n), fmt.Sprintf("n=%d w=%d", n, o.Window); got != want {
				t.Fatalf("nwSalt = %q, want %q", got, want)
			}
			want := ""
			if o.backendName() == "exact" {
				en := o.Compile.Exact.N
				if en == 0 {
					en = n
				}
				want = fmt.Sprintf("exactN=%d", en)
			}
			if got := k.exactSalt(n); got != want {
				t.Fatalf("exactSalt(%d) = %q, want %q", n, got, want)
			}
		}
	}
}

// TestGoldenDiskTierLoads restores the disk tiers under testdata/disk-v1,
// written by the first implementation of the tier, and requires every
// entry to load (a key or format drift would count them stale or corrupt)
// and a following batch to be served from cache alone.
func TestGoldenDiskTierLoads(t *testing.T) {
	for _, tc := range goldenKeys {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			src := filepath.Join("testdata", "disk-v1", tc.dir)
			err := filepath.WalkDir(src, func(path string, d fs.DirEntry, err error) error {
				if err != nil || d.IsDir() {
					return err
				}
				rel, _ := filepath.Rel(src, path)
				b, err := os.ReadFile(path)
				if err != nil {
					return err
				}
				dst := filepath.Join(dir, rel)
				if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
					return err
				}
				return os.WriteFile(dst, b, 0o644)
			})
			if err != nil {
				t.Fatal(err)
			}
			store, err := OpenDiskStore(dir)
			if err != nil {
				t.Fatal(err)
			}
			cache := NewCache()
			ls, err := LoadDisk(context.Background(), store, cache, tc.opt)
			if err != nil {
				t.Fatal(err)
			}
			if ls.Scanned != len(tc.disk) || ls.Loaded != ls.Scanned {
				t.Fatalf("load = %v, want all %d entries loaded", ls, len(tc.disk))
			}
			opt := tc.opt
			opt.Cache = cache
			b, err := Run([]Request{{Name: "fig1", Source: fig1}}, opt)
			if err != nil {
				t.Fatal(err)
			}
			if err := b.FirstErr(); err != nil {
				t.Fatal(err)
			}
			if b.Stats.CacheMisses != 0 {
				t.Errorf("batch over the loaded tier missed %d times", b.Stats.CacheMisses)
			}
		})
	}
}
