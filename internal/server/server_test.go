package server

import (
	"bytes"
	"context"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"doacross/internal/faults"
	"doacross/internal/pipeline"
)

// fig1 is the paper's running example, the corpus of every daemon test.
const fig1 = `DO I = 1, N
S1: B[I] = A[I-2] + E[I+1]
S2: G[I-3] = A[I-1] * E[I+2]
S3: A[I] = B[I] + C[I+3]
ENDDO`

// waitFor polls cond until it holds or the deadline passes.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func newTestServer(t *testing.T, cfg Config) *Server {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// post serves one schedule request through the handler and decodes the
// answer into out (which may be *ScheduleResponse or *ErrorResponse).
func post(t *testing.T, h http.Handler, req ScheduleRequest, hdr map[string]string) (*httptest.ResponseRecorder, []byte) {
	t.Helper()
	body, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	r := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(string(body)))
	for k, v := range hdr {
		r.Header.Set(k, v)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	return w, w.Body.Bytes()
}

func decodeOK(t *testing.T, w *httptest.ResponseRecorder, body []byte) *ScheduleResponse {
	t.Helper()
	if w.Code != http.StatusOK {
		t.Fatalf("status = %d, body %s", w.Code, body)
	}
	var resp ScheduleResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode: %v (%s)", err, body)
	}
	return &resp
}

func decodeErr(t *testing.T, body []byte) *ErrorResponse {
	t.Helper()
	var resp ErrorResponse
	if err := json.Unmarshal(body, &resp); err != nil {
		t.Fatalf("decode error body: %v (%s)", err, body)
	}
	return &resp
}

// TestScheduleBasic: a cold request compiles and schedules; an identical
// follow-up is a verified cache hit with the same content address.
func TestScheduleBasic(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	w, body := post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	first := decodeOK(t, w, body)
	if len(first.Machines) == 0 {
		t.Fatal("no machine results")
	}
	m := first.Machines[0]
	if m.CacheHit {
		t.Error("cold request served from cache")
	}
	if m.SyncTime <= 0 || m.ListTime <= 0 {
		t.Errorf("times = (%d, %d), want positive", m.ListTime, m.SyncTime)
	}
	if first.Key == "" || m.Key == "" {
		t.Error("response is missing content-address keys")
	}

	w, body = post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	second := decodeOK(t, w, body)
	if !second.Machines[0].CacheHit {
		t.Error("identical follow-up was not a cache hit")
	}
	if second.Key != first.Key || second.Machines[0].SyncTime != m.SyncTime {
		t.Error("cache hit differs from the cold answer")
	}
}

// TestResponseKeysGolden: the response's content addresses are the
// pipeline's, byte for byte — the request key under the effective backend
// and the schedule key of each machine — pinned for fig1 under the default
// options to the values the first daemon served.
func TestResponseKeysGolden(t *testing.T) {
	h := newTestServer(t, Config{}).Handler()
	w, body := post(t, h, ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	resp := decodeOK(t, w, body)
	if want := "98d49f003398ea7fbbc40016431a1be6fdf1fa471defcfcd57bb05fbb88e84f1"; resp.Key != want {
		t.Errorf("request key = %s, want %s", resp.Key, want)
	}
	if want := "3411b63809c5183df75fc9bb8b5db7a44caa9bb4c02edd89c88f8d37df5bb9da"; resp.Machines[0].Key != want {
		t.Errorf("schedule key = %s, want %s", resp.Machines[0].Key, want)
	}
	w, body = post(t, h, ScheduleRequest{Name: "fig1", Source: fig1, Backend: "list"}, nil)
	resp = decodeOK(t, w, body)
	var opt pipeline.Options
	opt.Compile.Backend = "list"
	key := pipeline.RequestKey(pipeline.Request{Source: fig1}, opt)
	if want := hex.EncodeToString(key[:]); resp.Key != want {
		t.Errorf("list-backend request key = %s, want %s", resp.Key, want)
	}
}

// TestBadRequests: malformed input is refused with 400 before any work
// (405 for the wrong method), never 500.
func TestBadRequests(t *testing.T) {
	s := newTestServer(t, Config{})
	h := s.Handler()

	r := httptest.NewRequest(http.MethodGet, "/v1/schedule", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	if w.Code != http.StatusMethodNotAllowed {
		t.Errorf("GET = %d, want 405", w.Code)
	}

	cases := []struct {
		name string
		body string
	}{
		{"bad json", "{not json"},
		{"missing source", `{"name":"x"}`},
		{"negative n", fmt.Sprintf(`{"source":%q,"n":-1}`, fig1)},
		{"unknown backend", fmt.Sprintf(`{"source":%q,"backend":"bogus"}`, fig1)},
	}
	for _, tc := range cases {
		r := httptest.NewRequest(http.MethodPost, "/v1/schedule", strings.NewReader(tc.body))
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400 (%s)", tc.name, w.Code, w.Body)
		}
	}

	// A compile diagnostic in well-formed JSON is the client's bad source.
	w2, body := post(t, h, ScheduleRequest{Source: "DO I = ,\n"}, nil)
	if w2.Code != http.StatusBadRequest {
		t.Errorf("unparseable loop: status = %d, want 400 (%s)", w2.Code, body)
	}
	if er := decodeErr(t, body); er.Error == "" {
		t.Error("400 carries no error text")
	}
}

// TestCoalescing: concurrent identical requests share one flight — one
// pipeline run, N-1 coalesced responses — and the counters agree.
func TestCoalescing(t *testing.T) {
	const n = 5
	release := make(chan struct{})
	var compiles atomic.Int64
	hook := func(stage, name string) error {
		if stage == "compile" && name == "blockme" {
			compiles.Add(1)
			<-release
		}
		return nil
	}
	s := newTestServer(t, Config{MaxInFlight: 2 * n, FaultHook: hook})
	h := s.Handler()

	var wg sync.WaitGroup
	var coalesced atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			w, body := post(t, h, ScheduleRequest{Name: "blockme", Source: fig1}, nil)
			if w.Code != http.StatusOK {
				t.Errorf("status = %d (%s)", w.Code, body)
				return
			}
			var resp ScheduleResponse
			if err := json.Unmarshal(body, &resp); err != nil {
				t.Error(err)
				return
			}
			if resp.Coalesced {
				coalesced.Add(1)
			}
		}()
	}
	// Release the leader only once every caller joined the flight — that is
	// what makes the coalesced count exact.
	waitFor(t, "all callers to join the flight", func() bool {
		flights, waiters := s.flights.Stats()
		return flights == 1 && waiters == n
	})
	close(release)
	wg.Wait()

	if got := coalesced.Load(); got != n-1 {
		t.Errorf("coalesced responses = %d, want %d", got, n-1)
	}
	if got := compiles.Load(); got != 1 {
		t.Errorf("pipeline ran %d times, want 1", got)
	}
	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	w := httptest.NewRecorder()
	h.ServeHTTP(w, r)
	text := w.Body.String()
	if !strings.Contains(text, fmt.Sprintf("scheduld_coalesced_total %d", n-1)) {
		t.Errorf("/metrics does not report %d coalesced requests", n-1)
	}
	if !strings.Contains(text, "scheduld_flights_total 1") {
		t.Error("/metrics does not report exactly 1 flight")
	}
}

// TestRateLimit: an exhausted tenant bucket sheds with 429 + Retry-After
// while other tenants keep their own budget.
func TestRateLimit(t *testing.T) {
	s := newTestServer(t, Config{RatePerSec: 1, Burst: 1})
	h := s.Handler()

	w, body := post(t, h, ScheduleRequest{Source: fig1}, nil)
	decodeOK(t, w, body)

	w, body = post(t, h, ScheduleRequest{Source: fig1}, nil)
	if w.Code != http.StatusTooManyRequests {
		t.Fatalf("second request = %d, want 429 (%s)", w.Code, body)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("429 without Retry-After")
	}
	if er := decodeErr(t, body); er.Reason != "ratelimit" || er.RetryAfterSeconds < 1 {
		t.Errorf("429 body = %+v", er)
	}

	// Another tenant's bucket is untouched.
	w, body = post(t, h, ScheduleRequest{Source: fig1}, map[string]string{"X-Tenant": "other"})
	decodeOK(t, w, body)
}

// TestQueueShed: with one slot and no queue, a second request is shed
// immediately with 503 reason "queue" instead of waiting unboundedly.
func TestQueueShed(t *testing.T) {
	release := make(chan struct{})
	hook := func(stage, name string) error {
		if stage == "compile" && name == "hold" {
			<-release
		}
		return nil
	}
	s := newTestServer(t, Config{MaxInFlight: 1, QueueLimit: -1, FaultHook: hook})
	h := s.Handler()

	done := make(chan struct{})
	go func() {
		defer close(done)
		w, body := post(t, h, ScheduleRequest{Name: "hold", Source: fig1}, nil)
		if w.Code != http.StatusOK {
			t.Errorf("held request = %d (%s)", w.Code, body)
		}
	}()
	waitFor(t, "first request to hold the slot", func() bool { return s.adm.inFlight() == 1 })

	w, body := post(t, h, ScheduleRequest{Name: "shed", Source: fig1}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("second request = %d, want 503 (%s)", w.Code, body)
	}
	if er := decodeErr(t, body); er.Reason != "queue" {
		t.Errorf("shed reason = %q, want queue", er.Reason)
	}
	close(release)
	<-done
}

// TestBreaker: consecutive degraded (fallback-served) answers open the
// backend's circuit — subsequent requests shed with 503 reason "breaker" —
// while a healthy backend's circuit stays closed.
func TestBreaker(t *testing.T) {
	hook := func(stage, name string) error {
		if stage == "schedule" && strings.HasPrefix(name, "bad") {
			return fmt.Errorf("injected backend failure")
		}
		return nil
	}
	s := newTestServer(t, Config{
		BreakerThreshold: 2,
		BreakerCooldown:  time.Hour,
		FaultHook:        hook,
	})
	h := s.Handler()

	// Two degraded 200s: correct answers served by the verified fallback,
	// but each one a backend failure the breaker must count.
	for i := 0; i < 2; i++ {
		w, body := post(t, h, ScheduleRequest{Name: fmt.Sprintf("bad%d", i), Source: fig1}, nil)
		resp := decodeOK(t, w, body)
		if !resp.Machines[0].Degraded {
			t.Fatalf("request %d not degraded; the hook did not fire", i)
		}
	}

	w, body := post(t, h, ScheduleRequest{Name: "bad2", Source: fig1}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("post-threshold request = %d, want 503 (%s)", w.Code, body)
	}
	if er := decodeErr(t, body); er.Reason != "breaker" {
		t.Errorf("shed reason = %q, want breaker", er.Reason)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("breaker 503 without Retry-After")
	}

	// A different backend is a different circuit: still served.
	w, body = post(t, h, ScheduleRequest{Name: "good", Source: fig1, Backend: "list"}, nil)
	decodeOK(t, w, body)

	r := httptest.NewRequest(http.MethodGet, "/metrics", nil)
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, r)
	if !strings.Contains(rec.Body.String(), "scheduld_breaker_open_total 1") {
		t.Error("/metrics does not count the circuit opening")
	}
}

// TestDrainingSheds: after Shutdown the handler sheds new requests with
// 503 reason "draining" (handler-only embedding: no listener involved).
func TestDrainingSheds(t *testing.T) {
	s := newTestServer(t, Config{})
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}
	w, body := post(t, s.Handler(), ScheduleRequest{Source: fig1}, nil)
	if w.Code != http.StatusServiceUnavailable {
		t.Fatalf("draining request = %d, want 503 (%s)", w.Code, body)
	}
	if er := decodeErr(t, body); er.Reason != "draining" {
		t.Errorf("shed reason = %q, want draining", er.Reason)
	}
	if w.Header().Get("Retry-After") == "" {
		t.Error("draining 503 without Retry-After")
	}
}

// TestGracefulDrain: a request admitted before SIGTERM finishes during the
// drain window and Shutdown returns clean.
func TestGracefulDrain(t *testing.T) {
	release := make(chan struct{})
	hook := func(stage, name string) error {
		if stage == "compile" && name == "hold" {
			<-release
		}
		return nil
	}
	s := newTestServer(t, Config{FaultHook: hook})
	addr, err := s.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	base := "http://" + addr.String()

	reqDone := make(chan int, 1)
	go func() {
		resp, err := http.Post(base+"/v1/schedule", "application/json",
			strings.NewReader(fmt.Sprintf(`{"name":"hold","source":%q}`, fig1)))
		if err != nil {
			t.Error(err)
			reqDone <- 0
			return
		}
		resp.Body.Close()
		reqDone <- resp.StatusCode
	}()
	waitFor(t, "request to be admitted", func() bool { return s.adm.inFlight() == 1 })

	shutDone := make(chan error, 1)
	go func() { shutDone <- s.Shutdown(context.Background()) }()
	waitFor(t, "drain to begin", func() bool { return s.draining.Load() })

	close(release)
	if code := <-reqDone; code != http.StatusOK {
		t.Errorf("in-flight request finished with %d during drain, want 200", code)
	}
	if err := <-shutDone; err != nil {
		t.Errorf("Shutdown = %v, want nil", err)
	}
}

// TestServerWarmRestart is the acceptance scenario: a cold daemon fills the
// persistent tier, a restarted daemon re-verifies and loads it, and then
// serves the same request as a warm hit with zero request-time recompiles.
func TestServerWarmRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := newTestServer(t, Config{DiskDir: dir})
	w, body := post(t, s1.Handler(), ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	cold := decodeOK(t, w, body)
	if err := s1.Shutdown(context.Background()); err != nil {
		t.Fatal(err)
	}

	var logged bytes.Buffer
	s2 := newTestServer(t, Config{DiskDir: dir, Logger: slog.New(slog.NewJSONHandler(&logged, nil))})
	if ls := s2.LoadStats(); ls.Loaded < 1 || ls.Corrupt != 0 {
		t.Fatalf("warm start loaded %d entries (%s), want >= 1 clean", ls.Loaded, ls)
	}
	// The load is logged with its outcome and how long it took.
	var line struct {
		Msg        string   `json:"msg"`
		Loaded     int      `json:"loaded"`
		DurationMS *float64 `json:"duration_ms"`
	}
	if err := json.Unmarshal(logged.Bytes(), &line); err != nil {
		t.Fatalf("log %q: %v", logged.String(), err)
	}
	if line.Msg != "disk tier loaded" || line.Loaded != s2.LoadStats().Loaded ||
		line.DurationMS == nil || *line.DurationMS <= 0 {
		t.Errorf("load log line = %s, want the loaded count and a positive duration_ms", logged.String())
	}
	w, body = post(t, s2.Handler(), ScheduleRequest{Name: "fig1", Source: fig1}, nil)
	warm := decodeOK(t, w, body)
	if !warm.Machines[0].CacheHit {
		t.Error("restarted daemon did not serve the warm entry")
	}
	if warm.Key != cold.Key || warm.Machines[0].SyncTime != cold.Machines[0].SyncTime {
		t.Error("warm answer differs from the cold answer")
	}
	// Zero request-time scheduling: the entry came off disk, verified.
	if n := s2.Metrics().Stats().Stage(pipeline.StageSchedule).Count; n != 0 {
		t.Errorf("warm daemon ran the scheduler %d times, want 0", n)
	}
}

// TestNetFaults: an injected network delay serves slow, not wrong — the
// request still answers 200 and the injection is counted.
func TestNetFaults(t *testing.T) {
	in := faults.MustNew(faults.Plan{
		NetDelay: 1, DelayFor: 5 * time.Millisecond,
		Stages: []string{faults.StageNet},
	})
	s := newTestServer(t, Config{FaultHook: in.Probe})
	start := time.Now()
	w, body := post(t, s.Handler(), ScheduleRequest{Source: fig1}, nil)
	decodeOK(t, w, body)
	if time.Since(start) < 5*time.Millisecond {
		t.Error("request did not observe the injected delay")
	}
	if c := in.Counts(); c.NetDelays < 1 {
		t.Errorf("counts = %s, want a net delay", c)
	}
}

// TestHealthAndStats: the observability endpoints answer well-formed JSON.
func TestHealthAndStats(t *testing.T) {
	s := newTestServer(t, Config{DiskDir: t.TempDir()})
	h := s.Handler()
	for _, path := range []string{"/healthz", "/stats"} {
		r := httptest.NewRequest(http.MethodGet, path, nil)
		w := httptest.NewRecorder()
		h.ServeHTTP(w, r)
		if w.Code != http.StatusOK {
			t.Errorf("%s = %d", path, w.Code)
			continue
		}
		var v map[string]any
		if err := json.Unmarshal(w.Body.Bytes(), &v); err != nil {
			t.Errorf("%s: %v", path, err)
		}
	}
}
