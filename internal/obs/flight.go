package obs

import (
	"bufio"
	"cmp"
	"context"
	"encoding/json"
	"io"
	"log/slog"
	"slices"
	"sync"
	"time"
)

// FlightRecord is one entry of the flight recorder's ring: a structured log
// record, a completed request with its span tree, or a dump trigger marker.
type FlightRecord struct {
	Time time.Time `json:"time"`
	// Kind is "log", "request" or "trigger".
	Kind string `json:"kind"`
	// RequestID correlates the record with a request (X-Request-Id).
	RequestID string         `json:"request_id,omitempty"`
	Level     string         `json:"level,omitempty"`
	Msg       string         `json:"msg,omitempty"`
	Attrs     map[string]any `json:"attrs,omitempty"`
	Request   *RequestRecord `json:"request,omitempty"`
}

// RequestRecord summarizes one served request for the flight recorder.
type RequestRecord struct {
	Name       string     `json:"name,omitempty"`
	Backend    string     `json:"backend,omitempty"`
	Status     int        `json:"status,omitempty"`
	DurationMS float64    `json:"duration_ms"`
	Coalesced  bool       `json:"coalesced,omitempty"`
	Degraded   bool       `json:"degraded,omitempty"`
	Err        string     `json:"err,omitempty"`
	Spans      []SpanNode `json:"spans,omitempty"`
}

// SpanNode is one span of a request's trace tree, nested.
type SpanNode struct {
	Kind     string     `json:"kind"`
	Name     string     `json:"name"`
	DurUS    int64      `json:"dur_us"`
	Err      string     `json:"err,omitempty"`
	Children []SpanNode `json:"children,omitempty"`
}

// SpanNodes folds a span snapshot (Recorder.Snapshot order) into nested
// trees, roots first; siblings keep snapshot order. A span whose parent is
// not in the snapshot (dropped by ring wrap-around) becomes a root, as in
// BuildTree. All nodes share one backing array: every node's Children is a
// window of it.
func SpanNodes(spans []Span) []SpanNode {
	n := len(spans)
	if n == 0 {
		return nil
	}
	// Children are grouped by parent position (roots form group n) and the
	// groups are laid out in position order: group g occupies
	// nodes[start[g]:start[g+1]], with start[n+1] = n.
	ints := make([]int, 4*n+3)
	byID, parent, start, next := ints[:n], ints[n:2*n], ints[2*n:3*n+2], ints[3*n+2:]
	// byID lists positions in ID order, so a parent is found by binary
	// search instead of through a map.
	for i := range byID {
		byID[i] = i
	}
	slices.SortFunc(byID, func(a, b int) int { return cmp.Compare(spans[a].ID, spans[b].ID) })
	for i := range spans {
		parent[i] = n
		if id := spans[i].Parent; id != 0 {
			j, ok := slices.BinarySearchFunc(byID, id, func(k int, id SpanID) int {
				return cmp.Compare(spans[k].ID, id)
			})
			if ok {
				parent[i] = byID[j]
			}
		}
		start[parent[i]+1]++
	}
	for g := 1; g < len(start); g++ {
		start[g] += start[g-1]
	}
	copy(next, start)
	nodes := make([]SpanNode, n)
	at := byID // reused: at[i] is span i's node
	for i, s := range spans {
		k := next[parent[i]]
		next[parent[i]]++
		at[i] = k
		nodes[k] = SpanNode{Kind: s.Kind.String(), Name: s.Name, DurUS: s.Duration.Microseconds(), Err: s.Err}
	}
	for i := range spans {
		if lo, hi := start[i], start[i+1]; hi > lo {
			nodes[at[i]].Children = nodes[lo:hi:hi]
		}
	}
	return nodes[start[n]:]
}

// FlightRecorder is the always-on black box: a bounded mutex-guarded ring of
// recent FlightRecords (request span trees plus slog records), cheap enough
// to keep hot and dumped as JSONL when something goes wrong — panic,
// deadline breach, breaker-open, SIGQUIT — or on demand from
// /debug/flightrecord.
type FlightRecorder struct {
	mu   sync.Mutex
	buf  []FlightRecord
	next int
	full bool
}

// NewFlightRecorder returns a recorder keeping the last n records (n <= 0:
// 256).
func NewFlightRecorder(n int) *FlightRecorder {
	if n <= 0 {
		n = 256
	}
	return &FlightRecorder{buf: make([]FlightRecord, n)}
}

// Add appends a record, evicting the oldest when full. A zero Time is
// stamped with the current time.
func (f *FlightRecorder) Add(r FlightRecord) {
	if f == nil {
		return
	}
	if r.Time.IsZero() {
		r.Time = time.Now()
	}
	f.mu.Lock()
	f.buf[f.next] = r
	f.next++
	if f.next == len(f.buf) {
		f.next, f.full = 0, true
	}
	f.mu.Unlock()
}

// Len reports the number of retained records.
func (f *FlightRecorder) Len() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.full {
		return len(f.buf)
	}
	return f.next
}

// Snapshot copies the retained records, oldest first.
func (f *FlightRecorder) Snapshot() []FlightRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.full {
		return append([]FlightRecord(nil), f.buf[:f.next]...)
	}
	out := make([]FlightRecord, 0, len(f.buf))
	out = append(out, f.buf[f.next:]...)
	out = append(out, f.buf[:f.next]...)
	return out
}

// WriteJSONL dumps the ring as JSONL, one record per line, oldest first.
func (f *FlightRecorder) WriteJSONL(w io.Writer) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, r := range f.Snapshot() {
		if err := enc.Encode(r); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// flightHandler tees every slog record into the flight recorder — before
// and regardless of the inner handler's level filtering, so the black box
// keeps debug-grade context even when the live log level is higher — then
// forwards to the inner handler when it is enabled.
type flightHandler struct {
	fr    *FlightRecorder
	inner slog.Handler
	// attrs carries WithAttrs attachments with their keys already qualified
	// by the group that was open when they were attached (slog semantics: a
	// group prefixes only attrs added after it opens).
	attrs []slog.Attr
	group string
}

// FlightLogger returns a logger that records into fr and forwards to inner
// (nil inner: records only).
func FlightLogger(fr *FlightRecorder, inner slog.Handler) *slog.Logger {
	return slog.New(&flightHandler{fr: fr, inner: inner})
}

func (h *flightHandler) Enabled(context.Context, slog.Level) bool { return true }

func (h *flightHandler) Handle(ctx context.Context, r slog.Record) error {
	rec := FlightRecord{Time: r.Time, Kind: "log", Level: r.Level.String(), Msg: r.Message}
	attrs := make(map[string]any, r.NumAttrs()+len(h.attrs))
	fold := func(key string, v slog.Value) {
		if key == "request_id" {
			rec.RequestID, _ = v.Any().(string)
			return
		}
		attrs[key] = v.Any()
	}
	for _, a := range h.attrs {
		fold(a.Key, a.Value)
	}
	r.Attrs(func(a slog.Attr) bool {
		key := a.Key
		if h.group != "" {
			key = h.group + "." + key
		}
		fold(key, a.Value)
		return true
	})
	if len(attrs) > 0 {
		rec.Attrs = attrs
	}
	h.fr.Add(rec)
	if h.inner != nil && h.inner.Enabled(ctx, r.Level) {
		return h.inner.Handle(ctx, r)
	}
	return nil
}

func (h *flightHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	nh := *h
	qual := make([]slog.Attr, len(attrs))
	for i, a := range attrs {
		if h.group != "" {
			a.Key = h.group + "." + a.Key
		}
		qual[i] = a
	}
	nh.attrs = append(append([]slog.Attr(nil), h.attrs...), qual...)
	if h.inner != nil {
		nh.inner = h.inner.WithAttrs(attrs)
	}
	return &nh
}

func (h *flightHandler) WithGroup(name string) slog.Handler {
	if name == "" {
		return h
	}
	nh := *h
	if nh.group != "" {
		nh.group += "." + name
	} else {
		nh.group = name
	}
	if h.inner != nil {
		nh.inner = h.inner.WithGroup(name)
	}
	return &nh
}
