package server

import (
	"bufio"
	"bytes"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"doacross/internal/dlx"
	"doacross/internal/obs"
	"doacross/internal/passes"
	"doacross/internal/pipeline"
)

// TestRequestIDEcho: the client's X-Request-Id comes back on the response
// header and in the body, and a request without one gets a minted ID.
func TestRequestIDEcho(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	w, body := post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, map[string]string{"X-Request-Id": "test-id-123"})
	resp := decodeOK(t, w, body)
	if got := w.Header().Get("X-Request-Id"); got != "test-id-123" {
		t.Errorf("echoed header = %q, want test-id-123", got)
	}
	if resp.RequestID != "test-id-123" {
		t.Errorf("body request_id = %q, want test-id-123", resp.RequestID)
	}

	w2, body2 := post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	resp2 := decodeOK(t, w2, body2)
	if resp2.RequestID == "" || w2.Header().Get("X-Request-Id") != resp2.RequestID {
		t.Errorf("minted ID missing or inconsistent: header %q, body %q",
			w2.Header().Get("X-Request-Id"), resp2.RequestID)
	}
}

// TestRequestIDOnErrors: shed and failed requests still carry the
// correlation ID, so a client can quote it when reporting the refusal.
func TestRequestIDOnErrors(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	w, body := post(t, h, ScheduleRequest{Name: "bad", Source: "DO I = 1, N\nOOPS\nENDDO"},
		map[string]string{"X-Request-Id": "err-77"})
	if w.Code == http.StatusOK {
		t.Fatalf("malformed loop served OK: %s", body)
	}
	if got := w.Header().Get("X-Request-Id"); got != "err-77" {
		t.Errorf("error response header = %q, want err-77", got)
	}
	if e := decodeErr(t, body); e.RequestID != "err-77" {
		t.Errorf("error body request_id = %q, want err-77", e.RequestID)
	}
}

// TestRequestIDSanitized: a hostile header (newlines, huge) cannot be
// reflected into logs or the response; it is replaced by a minted ID.
func TestRequestIDSanitized(t *testing.T) {
	r := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
	r.Header.Set("X-Request-Id", "ok-id.v2_3")
	if got := requestID(r); got != "ok-id.v2_3" {
		t.Errorf("clean ID rewritten to %q", got)
	}
	r.Header.Set("X-Request-Id", "bad id \x00 with junk ")
	if got := requestID(r); strings.ContainsAny(got, " \x00") || got == "" {
		t.Errorf("hostile ID survived: %q", got)
	}
	r.Header.Set("X-Request-Id", strings.Repeat("a", 500))
	if got := requestID(r); len(got) > 128 {
		t.Errorf("oversized ID kept %d bytes", len(got))
	}
	// W3C traceparent supplies the ID when X-Request-Id is absent.
	r2 := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
	r2.Header.Set("traceparent", "00-4bf92f3577b34da6a3ce929d0e0e4736-00f067aa0ba902b7-01")
	if got := requestID(r2); got != "4bf92f3577b34da6a3ce929d0e0e4736" {
		t.Errorf("traceparent trace-id not used: %q", got)
	}
}

// TestFlightRecordEndpoint: the ring is served as JSONL and contains both
// the structured log records and the request records of served traffic,
// keyed by the correlation ID.
func TestFlightRecordEndpoint(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()
	post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, map[string]string{"X-Request-Id": "fr-1"})

	r := httptest.NewRequest(http.MethodGet, "/debug/flightrecord", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusOK {
		t.Fatalf("/debug/flightrecord = %d", w.Code)
	}
	var kinds []string
	var sawServed, sawRequest bool
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	for sc.Scan() {
		var rec struct {
			Kind      string `json:"kind"`
			RequestID string `json:"request_id"`
			Msg       string `json:"msg"`
			Request   *struct {
				Status int `json:"status"`
			} `json:"request"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		kinds = append(kinds, rec.Kind)
		if rec.Kind == "log" && rec.RequestID == "fr-1" && strings.Contains(rec.Msg, "served") {
			sawServed = true
		}
		if rec.Kind == "request" && rec.RequestID == "fr-1" && rec.Request != nil && rec.Request.Status == 200 {
			sawRequest = true
		}
	}
	if !sawServed {
		t.Errorf("no 'request served' log record for fr-1 in ring (kinds: %v)", kinds)
	}
	if !sawRequest {
		t.Errorf("no request record for fr-1 in ring (kinds: %v)", kinds)
	}
}

// flightSpans returns the span tree of the request record filed under rid
// in the daemon's flight record.
func flightSpans(t *testing.T, h http.Handler, rid string) []obs.SpanNode {
	t.Helper()
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(http.MethodGet, "/debug/flightrecord", nil))
	sc := bufio.NewScanner(bytes.NewReader(w.Body.Bytes()))
	sc.Buffer(nil, 1<<20)
	for sc.Scan() {
		var rec obs.FlightRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		if rec.Kind == "request" && rec.RequestID == rid && rec.Request != nil {
			return rec.Request.Spans
		}
	}
	t.Fatalf("no request record for %s in the flight record", rid)
	return nil
}

// renderSpans renders a span tree as kind:name(children...), and counts
// its spans.
func renderSpans(nodes []obs.SpanNode, count *int) string {
	var b strings.Builder
	for i, n := range nodes {
		*count++
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n.Kind + ":" + n.Name)
		if len(n.Children) > 0 {
			b.WriteString("(" + renderSpans(n.Children, count) + ")")
		}
	}
	return b.String()
}

// TestFlightRecordSpanTree: the flight record of a served request carries
// its whole span tree — batch, request, compile with every pass, and
// schedule/verify/simulate on every machine — on a miss, and the shorter
// tree of a hit, with no span lost to the per-flight recorder's size.
func TestFlightRecordSpanTree(t *testing.T) {
	opt := pipeline.Options{Machines: dlx.PaperConfigs()}
	s := newTestServer(t, Config{Pipeline: opt})
	h := s.Handler()
	var missPasses []string
	for _, p := range passes.New(opt.Compile).Names() {
		missPasses = append(missPasses, "pass:"+p)
	}
	want := func(miss bool) string {
		compile := "stage:compile"
		if miss {
			compile += "(" + strings.Join(missPasses, " ") + ")"
		}
		parts := []string{compile}
		for range opt.Machines {
			parts = append(parts, "stage:schedule")
			if miss {
				parts = append(parts, "stage:check")
			}
			parts = append(parts, "stage:simulate")
		}
		return "batch:batch(request:fig1(" + strings.Join(parts, " ") + "))"
	}
	for _, tc := range []struct {
		rid  string
		miss bool
	}{{"tree-miss", true}, {"tree-hit", false}} {
		w, body := post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, map[string]string{"X-Request-Id": tc.rid})
		resp := decodeOK(t, w, body)
		for _, m := range resp.Machines {
			if m.CacheHit == tc.miss {
				t.Fatalf("%s: %s cache_hit = %v", tc.rid, m.Machine, m.CacheHit)
			}
		}
		count := 0
		if got := renderSpans(flightSpans(t, h, tc.rid), &count); got != want(tc.miss) {
			t.Errorf("%s span tree:\n got %s\nwant %s", tc.rid, got, want(tc.miss))
		}
		if tc.miss && count != pipeline.RequestSpans(opt) {
			t.Errorf("miss recorded %d spans, RequestSpans = %d", count, pipeline.RequestSpans(opt))
		}
	}
}

// TestFlightDumpToDir: DumpFlightRecord writes a JSONL file into FlightDir
// and returns its path.
func TestFlightDumpToDir(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{FlightDir: dir})
	h := s.Handler()
	post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, map[string]string{"X-Request-Id": "dump-1"})
	path, err := s.DumpFlightRecord("test")
	if err != nil {
		t.Fatal(err)
	}
	if filepath.Dir(path) != dir || !strings.Contains(filepath.Base(path), "flightrecord-test-") {
		t.Errorf("dump path = %q", path)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(b, []byte("dump-1")) {
		t.Errorf("dump does not mention the request ID:\n%s", b)
	}
}

// TestStructuredLogCarriesRequestID: the slog JSON line for a served
// request carries the correlation ID, so logs can be grepped by it.
func TestStructuredLogCarriesRequestID(t *testing.T) {
	var out bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&out, &slog.HandlerOptions{Level: slog.LevelInfo}))
	s := newTestServer(t, Config{Logger: logger})
	h := s.Handler()
	post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, map[string]string{"X-Request-Id": "log-42"})
	if !strings.Contains(out.String(), `"request_id":"log-42"`) {
		t.Errorf("slog output lacks request_id=log-42:\n%s", out.String())
	}
	if !strings.Contains(out.String(), "request served") {
		t.Errorf("slog output lacks the served line:\n%s", out.String())
	}
}

// TestPanicRecoveredAndDumped: a handler panic is converted to a flight
// dump instead of being lost, and the trigger record names the reason.
func TestPanicRecoveredAndDumped(t *testing.T) {
	dir := t.TempDir()
	s := newTestServer(t, Config{FlightDir: dir})
	var h http.Handler = s.recovered(func(w http.ResponseWriter, r *http.Request) {
		panic("boom")
	})
	defer func() {
		if recover() == nil {
			t.Error("panic swallowed: net/http must still see it to close the connection")
		}
		files, err := filepath.Glob(filepath.Join(dir, "flightrecord-panic-*.jsonl"))
		if err != nil || len(files) != 1 {
			t.Fatalf("panic dump files = %v (%v)", files, err)
		}
		b, _ := os.ReadFile(files[0])
		if !bytes.Contains(b, []byte(`"trigger"`)) || !bytes.Contains(b, []byte("panic")) {
			t.Errorf("panic dump lacks trigger record:\n%s", b)
		}
	}()
	r := httptest.NewRequest(http.MethodPost, "/v1/schedule", nil)
	h.ServeHTTP(httptest.NewRecorder(), r)
}

// TestUtilizationInResponse: with Options.Utilization on, every served
// machine result carries the verified stall-cause report; without it the
// field stays absent.
func TestUtilizationInResponse(t *testing.T) {
	s := newTestServer(t, Config{Pipeline: pipeline.Options{Utilization: true}})
	h := s.Handler()
	w, body := post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	resp := decodeOK(t, w, body)
	m := resp.Machines[0]
	u := m.Utilization
	if u == nil {
		t.Fatal("no utilization report with Utilization on")
	}
	if u.Cycles != m.SyncTime {
		t.Errorf("utilization cycles %d != sync time %d", u.Cycles, m.SyncTime)
	}
	if got := u.IssuedCycles + u.SyncWaitCycles + u.WindowWaitCycles + u.DrainCycles; got != u.Procs*u.Cycles {
		t.Errorf("attribution covers %d proc-cycles, want %d", got, u.Procs*u.Cycles)
	}

	s2 := newTestServer(t, Config{})
	w2, body2 := post(t, s2.Handler(), ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	if resp2 := decodeOK(t, w2, body2); resp2.Machines[0].Utilization != nil {
		t.Error("utilization attached without opting in")
	}
}
