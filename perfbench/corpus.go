package main

import (
	"bufio"
	"bytes"
	"compress/gzip"
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// poolGz is the frozen loop pool written by gencorpus (see
// gencorpus/main.go for why it is frozen and for its format). Every
// workload draws its loops from it, so a seed names the same loops on
// every commit.
//
//go:embed corpus/pool.gz
var poolGz []byte

// poolDigest names the pool in every run's stamp.
var poolDigest = func() string {
	h := sha256.Sum256(poolGz)
	return hex.EncodeToString(h[:8])
}()

// pool is the decoded loop pool.
type pool struct {
	rounds  [][]string // Perfect-profile loops, one slice per generator round
	loopgen []string
}

func loadPool() (*pool, error) {
	zr, err := gzip.NewReader(bytes.NewReader(poolGz))
	if err != nil {
		return nil, fmt.Errorf("pool: %w", err)
	}
	r := bufio.NewReader(zr)
	p := &pool{}
	for {
		header, err := r.ReadString('\n')
		if err == io.EOF && header == "" {
			break
		}
		if err != nil {
			return nil, fmt.Errorf("pool: %w", err)
		}
		f := strings.Fields(header)
		if len(f) < 4 || f[0] != "%%" {
			return nil, fmt.Errorf("pool: bad record header %q", header)
		}
		size, err := strconv.Atoi(f[len(f)-1])
		if err != nil {
			return nil, fmt.Errorf("pool: bad record header %q", header)
		}
		src := make([]byte, size+1)
		if _, err := io.ReadFull(r, src); err != nil || src[size] != '\n' {
			return nil, fmt.Errorf("pool: truncated record %q", header)
		}
		switch {
		case f[1] == "perfect" && len(f) == 5:
			round, err := strconv.Atoi(f[2])
			if err != nil || round < len(p.rounds)-1 {
				return nil, fmt.Errorf("pool: bad round in %q", header)
			}
			for len(p.rounds) <= round {
				p.rounds = append(p.rounds, nil)
			}
			p.rounds[round] = append(p.rounds[round], string(src[:size]))
		case f[1] == "loopgen" && len(f) == 4:
			p.loopgen = append(p.loopgen, string(src[:size]))
		default:
			return nil, fmt.Errorf("pool: bad record header %q", header)
		}
	}
	return p, nil
}

// mix is the splitmix64 finalizer: it spreads a seed into a well-mixed
// 64-bit value.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// corpus returns count distinct loops of the pool chosen by seed: every
// loop of `rounds` seeded Perfect-profile rounds (the paper's Table 1 mix),
// then seeded loopgen loops until count loops are collected. The pool's
// sources are distinct, so the draw is too.
func (p *pool) corpus(seed uint64, rounds, count int) ([]string, error) {
	if rounds > len(p.rounds) {
		return nil, fmt.Errorf("corpus: %d rounds wanted, the pool has %d", rounds, len(p.rounds))
	}
	out := make([]string, 0, count)
	for _, r := range shuffled(seed^0x90f3, len(p.rounds))[:rounds] {
		for _, src := range p.rounds[r] {
			if len(out) < count {
				out = append(out, src)
			}
		}
	}
	for _, k := range shuffled(seed^0x1009e4, len(p.loopgen)) {
		if len(out) == count {
			break
		}
		out = append(out, p.loopgen[k])
	}
	if len(out) < count {
		return nil, fmt.Errorf("corpus: %d loops wanted, the pool holds %d", count, len(out))
	}
	return out, nil
}

// shuffled returns a seeded permutation of [0, n).
func shuffled(seed uint64, n int) []int {
	order := make([]int, n)
	for i := range order {
		order[i] = i
	}
	r := mix(seed)
	for i := n - 1; i > 0; i-- {
		r = mix(r)
		j := int(r % uint64(i+1))
		order[i], order[j] = order[j], order[i]
	}
	return order
}
