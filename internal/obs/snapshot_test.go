package obs

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"testing"
	"time"
	"unsafe"
)

// TestSnapshotAllocatesPerLiveSpan: a snapshot of a large ring holding few
// spans allocates for those spans, not for the ring's capacity.
func TestSnapshotAllocatesPerLiveSpan(t *testing.T) {
	const ring, calls = 512, 200
	perCall := func(k int) uint64 {
		r := NewRecorder(ring)
		for i := 0; i < k; i++ {
			sp := r.Start(KindStage, "s", Span{})
			r.End(&sp, nil)
		}
		r.Snapshot() // warm whatever the first call touches
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			if got := len(r.Snapshot()); got != k {
				t.Fatalf("snapshot of %d spans holds %d", k, got)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / calls
	}
	span := uint64(unsafe.Sizeof(Span{}))
	for _, k := range []int{1, 8, 32} {
		got := perCall(k)
		// Twice the span payload plus a little slack; a snapshot sized to
		// the ring would be ring*span bytes.
		if limit := 2*uint64(k)*span + 512; got > limit {
			t.Errorf("snapshot of %d spans in a %d-slot ring: %d B/call, want <= %d (ring-sized: %d)",
				k, ring, got, limit, ring*span)
		}
	}
}

// TestSnapshotWrappedRingNewestInStartOrder: after wrap-around a snapshot
// holds exactly the newest ring-size spans, ordered by start time.
func TestSnapshotWrappedRingNewestInStartOrder(t *testing.T) {
	r := NewRecorder(8)
	for i := 0; i < 21; i++ {
		sp := r.Start(KindPass, fmt.Sprintf("p%d", i), Span{})
		r.End(&sp, nil)
	}
	snap := r.Snapshot()
	if len(snap) != 8 || r.Dropped() != 13 {
		t.Fatalf("snapshot holds %d spans, dropped %d; want 8 and 13", len(snap), r.Dropped())
	}
	for i, s := range snap {
		if want := fmt.Sprintf("p%d", 13+i); s.Name != want {
			t.Errorf("snapshot[%d] = %s, want %s", i, s.Name, want)
		}
		if i > 0 && s.Start.Before(snap[i-1].Start) {
			t.Errorf("snapshot[%d] starts before snapshot[%d]", i, i-1)
		}
	}
}

// spanNodesReference is the map-based fold SpanNodes replaced: BuildTree
// indexes the snapshot and children are visited in snapshot order.
func spanNodesReference(spans []Span) []SpanNode {
	t := BuildTree(spans)
	var build func(id SpanID) []SpanNode
	build = func(id SpanID) []SpanNode {
		kids := t.Children[id]
		if len(kids) == 0 {
			return nil
		}
		out := make([]SpanNode, 0, len(kids))
		for _, c := range kids {
			out = append(out, SpanNode{
				Kind: c.Kind.String(), Name: c.Name, DurUS: c.Duration.Microseconds(),
				Err: c.Err, Children: build(c.ID),
			})
		}
		return out
	}
	return build(0)
}

// TestSpanNodesMatchesBuildTree: on random forests — interleaved requests,
// orphans whose parent was dropped, equal start times — SpanNodes nests
// exactly as a BuildTree walk does.
func TestSpanNodesMatchesBuildTree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	base := time.Unix(0, 0)
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(40)
		spans := make([]Span, 0, n)
		ids := rng.Perm(n + 5) // IDs need not follow positions
		for i := 0; i < n; i++ {
			s := Span{
				ID:       SpanID(ids[i] + 1),
				Kind:     Kind(rng.Intn(4)),
				Name:     fmt.Sprintf("s%d", i),
				Start:    base.Add(time.Duration(i/2) * time.Microsecond),
				Duration: time.Duration(rng.Intn(5000)) * time.Microsecond,
			}
			switch p := rng.Intn(4); {
			case p == 0 || i == 0:
				// a root
			case p == 1:
				s.Parent = SpanID(ids[n+rng.Intn(5)] + 1) // dropped parent
			default:
				s.Parent = spans[rng.Intn(i)].ID
			}
			if rng.Intn(6) == 0 {
				s.Err = errors.New("boom").Error()
			}
			spans = append(spans, s)
		}
		got, want := SpanNodes(spans), spanNodesReference(spans)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: SpanNodes differs from the BuildTree fold\n got %+v\nwant %+v", trial, got, want)
		}
	}
}
