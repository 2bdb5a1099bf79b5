package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// stamp prints the settings a run's numbers are only comparable under:
// commit (or, in a checkout without git metadata, a digest of the Go
// sources), the loop pool's digest, Go version, CPU model, GOMAXPROCS,
// nproc, seed, and the load: how many callers or clients.
func stamp(b *bench) {
	s := map[string]any{
		"workload":   b.workload,
		"seed":       b.seed,
		"seconds":    b.seconds,
		"trace":      b.trace,
		"commit":     gitCommit(),
		"src_sha256": sourceDigest(),
		"pool":       poolDigest,
		"go":         runtime.Version(),
		"cpu":        cpuModel(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"nproc":      b.nproc,
	}
	switch b.workload {
	case "cold-batch":
		s["load"] = fmt.Sprintf("%d callers", b.nproc)
	case "hot-serve":
		s["load"] = fmt.Sprintf("closed loop, %d clients", b.nproc)
	}
	line, _ := json.Marshal(s)
	info("stamp %s", line)
}

// gitCommit returns HEAD of the git repository rooted at the working
// directory ("unknown" outside one, including inside another repository).
func gitCommit() string {
	out, err := exec.Command("git", "rev-parse", "--show-toplevel", "HEAD").Output()
	wd, werr := os.Getwd()
	if err != nil || werr != nil {
		return "unknown"
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	if len(lines) != 2 {
		return "unknown"
	}
	top, _ := filepath.EvalSymlinks(lines[0])
	if here, _ := filepath.EvalSymlinks(wd); top != here {
		return "unknown"
	}
	return lines[1]
}

// sourceDigest hashes go.mod and every .go file of the module under test
// (the benchmark's own directory and hidden directories excluded), so runs
// from checkouts without git metadata still name the code they measured.
func sourceDigest() string {
	var files []string
	_ = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || path == "perfbench") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") || path == "go.mod" {
			files = append(files, path)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, f := range files {
		fh, err := os.Open(f)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s\x00", f)
		_, _ = io.Copy(h, fh)
		fh.Close()
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// startRSS collects the heap, returns freed memory to the OS and samples
// the process's resident set (VmRSS) every rssEvery until the returned
// function is called; that function returns the largest sample in MiB. The
// peak is thus that of the phase it brackets, not of the set-up before it.
// Where /proc is unavailable it reports the Go runtime's obtained memory.
func startRSS() func() float64 {
	runtime.GC()
	debug.FreeOSMemory()
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return func() float64 {
			var ms runtime.MemStats
			runtime.ReadMemStats(&ms)
			return float64(ms.Sys) / (1 << 20)
		}
	}
	buf := make([]byte, 4096)
	read := func() float64 {
		n, _ := f.ReadAt(buf, 0)
		_, rest, ok := bytes.Cut(buf[:n], []byte("VmRSS:"))
		if !ok {
			return 0
		}
		kb := 0.0
		for _, c := range bytes.TrimSpace(rest) {
			if c < '0' || c > '9' {
				break
			}
			kb = 10*kb + float64(c-'0')
		}
		return kb / 1024
	}
	stop := make(chan struct{})
	done := make(chan float64)
	go func() {
		peak := read()
		t := time.NewTicker(rssEvery)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				peak = math.Max(peak, read())
			case <-stop:
				done <- math.Max(peak, read())
				return
			}
		}
	}()
	return func() float64 {
		close(stop)
		peak := <-done
		f.Close()
		return peak
	}
}

// rssEvery is the resident-set sampling period.
const rssEvery = 10 * time.Millisecond

func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// quantile is the nearest-rank quantile of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// latencies reports a latency sample as median and p99, printing the sample
// count and the highest percentile the sample supports (at least ten
// samples beyond it). A p99 needs 1000 samples; fewer is a check failure,
// since the reported figure would then not be a p99.
func (b *bench) latencies(lat []time.Duration) {
	sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
	n := len(lat)
	supported := 0.0
	if n > 10 {
		supported = 100 * float64(n-10) / float64(n)
	}
	info("latency: n=%d p50=%.3fms p90=%.3fms p99=%.3fms max=%.3fms highest-supported=p%.2f",
		n, ms(quantile(lat, 0.5)), ms(quantile(lat, 0.9)), ms(quantile(lat, 0.99)),
		ms(quantile(lat, 1)), supported)
	if n < 1000 {
		b.problem("only %d latency samples: p99 needs at least 1000", n)
	}
	b.set("latency_p50_ms", ms(quantile(lat, 0.5)), "ms")
	b.set("latency_p99_ms", ms(quantile(lat, 0.99)), "ms")
}

// geomean of positive values.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += math.Log(x)
	}
	return math.Exp(s / float64(len(xs)))
}

// medianDur is the median of a small sample (the sample is reordered).
func medianDur(ds []time.Duration) time.Duration {
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	return ds[len(ds)/2]
}

func medianF(xs []float64) float64 {
	sort.Float64s(xs)
	return xs[len(xs)/2]
}

// paperFigures reports the paper's figures over the answers of the
// distinct (loop, N) pairs a workload served, one answer per machine: the
// geometric mean of the served schedule's simulated T, and of
// ListTime/SyncTime (the paper's improvement).
func (b *bench) paperFigures(pairs [][]answer) {
	var ts, sp []float64
	for _, as := range pairs {
		for _, a := range as {
			ts = append(ts, float64(a.SyncTime))
			sp = append(sp, float64(a.ListTime)/float64(a.SyncTime))
		}
	}
	info("paper metric over %d distinct (loop, N, machine) triples: T geomean %.4f, speedup vs list geomean %.5f",
		len(ts), geomean(ts), geomean(sp))
	if b.trace {
		return
	}
	b.set("sync_T_geomean", geomean(ts), "cycles")
	b.set("speedup_vs_list_geomean", geomean(sp), "x")
}
