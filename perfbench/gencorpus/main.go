// Command gencorpus writes the benchmark's frozen loop pool, corpus/pool.gz,
// from the repository's Perfect-profile and loopgen generators:
//
//	cd perfbench && go run ./gencorpus
//
// The benchmark draws its inputs from this file and never from the
// generators, because perfect.Generate keeps only loops that the dependence
// analyzer and the graph builder classify as intended: a change to those
// layers would otherwise change the loops a seed draws, and the parent and
// the change would be measured on different corpora.
//
// The file is gzip-compressed text. Each loop is one record: a header line
// "%% perfect <round> <profile> <bytes>" or "%% loopgen <index> <bytes>",
// then exactly <bytes> bytes of loop source, then a newline. Sources are
// distinct across the whole pool.
package main

import (
	"bytes"
	"compress/gzip"
	"flag"
	"fmt"
	"os"

	"doacross/internal/loopgen"
	"doacross/internal/perfect"
)

// Pool shape: poolRounds draws of the five Perfect profiles (the paper's
// Table 1 mix, 94 loops a round) and poolLoopgen loopgen loops. The
// workloads take at most half the rounds, so different seeds draw
// different corpora.
const (
	poolRounds  = 32
	poolLoopgen = 2000
	poolSeed    = 0x9e3779b97f4a7c15
)

func main() {
	out := flag.String("out", "corpus/pool.gz", "output file")
	flag.Parse()
	if err := write(*out); err != nil {
		fmt.Fprintln(os.Stderr, "gencorpus:", err)
		os.Exit(1)
	}
}

func write(path string) error {
	var buf bytes.Buffer
	seen := map[string]bool{}
	add := func(header, src string) {
		if seen[src] {
			return
		}
		seen[src] = true
		fmt.Fprintf(&buf, "%%%% %s %d\n%s\n", header, len(src), src)
	}
	for r := 0; r < poolRounds; r++ {
		for _, p := range perfect.Profiles() {
			p.Seed ^= poolSeed + uint64(r)*0x2545f4914f6cdd1d
			s, err := perfect.Generate(p)
			if err != nil {
				return err
			}
			for _, l := range s.Loops {
				add(fmt.Sprintf("perfect %d %s", r, p.Name), l.Source)
			}
		}
	}
	for i, src := range loopgen.Suite(poolSeed, poolLoopgen) {
		add(fmt.Sprintf("loopgen %d", i), src)
	}
	var z bytes.Buffer
	zw, err := gzip.NewWriterLevel(&z, gzip.BestCompression)
	if err != nil {
		return err
	}
	if _, err := zw.Write(buf.Bytes()); err != nil {
		return err
	}
	if err := zw.Close(); err != nil {
		return err
	}
	return os.WriteFile(path, z.Bytes(), 0o644)
}
