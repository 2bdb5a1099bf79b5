package sim

import (
	"testing"

	"doacross/internal/core"
	"doacross/internal/dlx"
)

// TestWindowLargeEqualsUnbounded: a window far larger than any recurrence
// reach behaves exactly like the idealized unbounded signal vector.
func TestWindowLargeEqualsUnbounded(t *testing.T) {
	for _, src := range []string{fig1Source, chainSource} {
		b := build(t, src)
		for _, s := range []*core.Schedule{mustList(t, b, dlx.Standard(2, 1)), mustSync(t, b, dlx.Standard(4, 1))} {
			unbounded := MustTime(s, Options{Lo: 1, Hi: 60})
			windowed, err := Time(s, Options{Lo: 1, Hi: 60, Window: 50})
			if err != nil {
				t.Fatal(err)
			}
			if windowed.Total != unbounded.Total {
				t.Errorf("%s: window 50 total %d != unbounded %d", s.Method, windowed.Total, unbounded.Total)
			}
		}
	}
}

// TestWindowTooSmallRejected: a window below the largest dependence distance
// would deadlock and must be rejected up front.
func TestWindowTooSmallRejected(t *testing.T) {
	b := build(t, fig1Source) // distances 1 and 2
	s := mustSync(t, b, dlx.Standard(4, 1))
	if _, err := Time(s, Options{Lo: 1, Hi: 20, Window: 1}); err == nil {
		t.Error("window 1 < distance 2 must be rejected")
	}
	st := b.loop.SeedStore(20, 8, 1)
	if _, err := Run(s, st, Options{Lo: 1, Hi: 20, Window: 1}); err == nil {
		t.Error("Run must reject window 1 too")
	}
}

// TestWindowEqualDistanceLFDRejected: with window == d on a pair the
// scheduler made LFD, the send would wait for its own iteration's later
// wait — rejected.
func TestWindowEqualDistanceLFDRejected(t *testing.T) {
	// Forward-converted pair with d=1: sync scheduling puts the send before
	// the wait.
	b := build(t, "DO I = 1, N\nB[I+1] = A[I-1] + E[I-2]\nA[I] = F[I] + G[I+2]\nENDDO")
	s := mustSync(t, b, dlx.Standard(4, 1))
	lfd := false
	for _, p := range s.PairSpans() {
		if !p.LBD() && p.Distance == 1 {
			lfd = true
		}
	}
	if !lfd {
		t.Skip("scheduler did not produce the LFD shape this test needs")
	}
	if _, err := Time(s, Options{Lo: 1, Hi: 20, Window: 1}); err == nil {
		t.Error("window == distance on an LFD pair must be rejected")
	}
}

// TestWindowThrottles: a tight window on a convertible (LFD) schedule caps
// how far sends can run ahead, increasing total time, monotonically in the
// window size.
func TestWindowThrottles(t *testing.T) {
	b := build(t, chainSource) // distance-1 LBD chain
	s := mustList(t, b, dlx.Uniform(2, 1))
	n := 60
	prev := -1
	for _, w := range []int{1, 2, 4, 16} {
		tm, err := Time(s, Options{Lo: 1, Hi: n, Window: w})
		if err != nil {
			t.Fatalf("window %d: %v", w, err)
		}
		if prev != -1 && tm.Total > prev {
			t.Errorf("window %d total %d > smaller-window total %d (should be monotone non-increasing)", w, tm.Total, prev)
		}
		prev = tm.Total
	}
	// The chain is already fully serialized by its dependence, so even
	// window 1 cannot make it slower than the unbounded run.
	unbounded := MustTime(s, Options{Lo: 1, Hi: n}).Total
	if prev != unbounded {
		t.Logf("note: window-16 total %d vs unbounded %d", prev, unbounded)
	}
}

// TestWindowForwardPairThrottled: an LFD-converted loop runs in O(1) time
// with unbounded signals; a small window forces the producers to pace
// themselves, making time grow with n again.
func TestWindowForwardPairThrottled(t *testing.T) {
	b := build(t, "DO I = 1, N\nA[I] = E[I]\nB[I+2] = A[I-3] * F[I+1]\nENDDO")
	s := mustSync(t, b, dlx.Standard(4, 2))
	if s.NumLBD() != 0 {
		t.Skip("needs the all-LFD shape")
	}
	n1, n2 := 40, 80
	flat1 := MustTime(s, Options{Lo: 1, Hi: n1}).Total
	flat2 := MustTime(s, Options{Lo: 1, Hi: n2}).Total
	if flat1 != flat2 {
		t.Fatalf("unbounded LFD loop should be flat: %d vs %d", flat1, flat2)
	}
	w1, err := Time(s, Options{Lo: 1, Hi: n1, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	w2, err := Time(s, Options{Lo: 1, Hi: n2, Window: 4})
	if err != nil {
		t.Fatal(err)
	}
	if w2.Total <= w1.Total {
		t.Errorf("window 4 should make time grow with n: %d (n=%d) vs %d (n=%d)", w1.Total, n1, w2.Total, n2)
	}
}

// TestWindowDetailedMatchesRecurrence: Run's timing matches the reference
// machine's under bounded windows, and memory remains correct.
func TestWindowDetailedMatchesRecurrence(t *testing.T) {
	for _, src := range []string{fig1Source, chainSource} {
		b := build(t, src)
		for _, cfg := range []dlx.Config{dlx.Standard(2, 1), dlx.Standard(4, 2)} {
			for _, s := range []*core.Schedule{mustList(t, b, cfg), mustSync(t, b, cfg)} {
				for _, w := range []int{2, 3, 8} {
					want := checkOracle(t, s, Options{Lo: 1, Hi: 24, Window: w})
					ref := b.loop.SeedStore(24, 10, uint64(w))
					got := ref.Clone()
					if err := b.loop.Run(ref); err != nil {
						t.Fatal(err)
					}
					tm, err := Run(s, got, Options{Lo: 1, Hi: 24, Window: w})
					if err != nil {
						t.Fatal(err)
					}
					if tm.Total != want.Total {
						t.Errorf("%s/%s window %d: Run %d != oracle %d",
							cfg.Name, s.Method, w, tm.Total, want.Total)
					}
					if d := ref.Diff(got); d != "" {
						t.Errorf("%s/%s window %d: memory wrong: %s", cfg.Name, s.Method, w, d)
					}
				}
			}
		}
	}
}
