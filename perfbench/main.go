// Command perfbench is the repository's end-to-end benchmark: it runs one
// named workload against the real compile → schedule → verify → simulate
// pipeline and the scheduld daemon, checks every output, and prints every
// metric by name with its unit. The last line of standard output is one
// JSON object {correct, attempted, failed, metrics}.
//
//	perfbench --workload cold-batch|hot-serve --seed N --seconds S --trace 0|1
//
// With --trace 0 it reports the end-to-end metrics of an untraced run; with
// --trace 1 it reports the per-layer metrics, measured from outside each
// layer on the workload's own inputs. See README.md for the design.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// Every workload schedules on the paper's four Table 2 machines at the
// paper's trip count unless it says otherwise.
const paperN = 100

// metric is one reported figure.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench carries one run's settings and collects its outputs.
type bench struct {
	workload string
	seed     uint64
	seconds  float64
	trace    bool
	nproc    int
	// dir is the run's private scratch directory (disk tiers), removed at
	// exit.
	dir string

	res      result
	problems []string
}

func (b *bench) set(name string, v float64, unit string) {
	b.res.Metrics[name] = metric{Value: v, Unit: unit}
}

// fail records an output-check failure: it counts against failed_frac and
// makes the run incorrect.
func (b *bench) fail(format string, args ...any) {
	b.res.Failed++
	b.problem(format, args...)
}

// problem records a design or check violation that makes the run incorrect
// without being a failed operation (e.g. a workload whose measured cache-hit
// share no longer matches its design).
func (b *bench) problem(format string, args ...any) {
	msg := fmt.Sprintf(format, args...)
	if len(b.problems) < 20 {
		fmt.Fprintln(os.Stderr, "perfbench: CHECK FAILED:", msg)
	}
	b.problems = append(b.problems, msg)
}

// info prints a human-readable line (never the last line of stdout).
func info(format string, args ...any) {
	fmt.Printf(format+"\n", args...)
}

var workloads = map[string]func(*bench) error{
	"cold-batch": runCold,
	"hot-serve":  runHot,
}

func main() {
	os.Exit(run())
}

func run() int {
	workload := flag.String("workload", "", "cold-batch or hot-serve")
	seed := flag.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 10, "measured duration of the run")
	trace := flag.Int("trace", 0, "0 = end-to-end metrics, 1 = per-layer metrics")
	flag.Parse()
	fn, ok := workloads[*workload]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintln(os.Stderr, "usage: perfbench --workload cold-batch|hot-serve --seed N --seconds S --trace 0|1")
		return 2
	}
	if err := os.MkdirAll(".perfbench", 0o755); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	dir, err := os.MkdirTemp(".perfbench", "run-")
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	defer os.RemoveAll(dir)
	b := &bench{
		workload: *workload, seed: *seed, seconds: *seconds, trace: *trace == 1,
		nproc: runtime.NumCPU(), dir: dir,
		res: result{Metrics: map[string]metric{}},
	}
	stamp(b)
	start := time.Now()
	if err := fn(b); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	info("run wall time: %.1fs", time.Since(start).Seconds())
	b.res.Correct = len(b.problems) == 0 && b.res.Attempted > 0
	printMetrics(b.res)
	line, err := json.Marshal(b.res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(line))
	if !b.res.Correct {
		fmt.Fprintf(os.Stderr, "perfbench: %d check(s) failed\n", len(b.problems))
		return 1
	}
	return 0
}

// printMetrics lists every metric by name with its unit, sorted.
func printMetrics(r result) {
	names := make([]string, 0, len(r.Metrics))
	for k := range r.Metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	info("attempted=%d failed=%d", r.Attempted, r.Failed)
	for _, k := range names {
		info("  %-28s %14.6g %s", k, r.Metrics[k].Value, r.Metrics[k].Unit)
	}
}

// workDir returns a fresh subdirectory of the run's scratch directory.
func (b *bench) workDir(name string) (string, error) {
	d := filepath.Join(b.dir, name)
	if err := os.MkdirAll(d, 0o755); err != nil {
		return "", fmt.Errorf("work dir: %w", err)
	}
	return d, nil
}
