package obs

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"time"
)

// Server is the opt-in HTTP admin surface of a pipeline run. It serves:
//
//	/metrics      Prometheus text-format exposition (Metrics hook)
//	/stats        JSON snapshot of the pipeline stats (Stats hook)
//	/trace        Chrome trace_event JSON of the recorded spans (Perfetto)
//	/trace.jsonl  the same spans as a structured JSONL event log
//	/healthz      liveness probe with uptime and span-buffer occupancy
//	/debug/pprof  the standard net/http/pprof handlers
//
// The hooks keep the package decoupled from internal/pipeline: the caller
// (internal/cliutil, or any embedder) wires in whatever registry it uses.
// Hooks left nil when Handler is built make the corresponding endpoint
// return 404.
type Server struct {
	// Recorder supplies the spans for /trace and /trace.jsonl (nil: 404).
	Recorder *Recorder
	// Metrics writes the Prometheus exposition for /metrics.
	Metrics func(w io.Writer)
	// Stats returns the JSON-marshalable snapshot for /stats.
	Stats func() any
	// Extra supplies pre-built events (machine timelines from the simulator
	// tracer) merged into /trace alongside the recorded spans (nil: spans
	// only).
	Extra func() []Event

	start time.Time
	srv   *http.Server
	ln    net.Listener
}

// Handler builds the admin mux.
func (s *Server) Handler() http.Handler {
	if s.start.IsZero() {
		s.start = time.Now()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	if s.Metrics != nil {
		mux.Handle("/metrics", MetricsHandler(s.Metrics))
	}
	if s.Stats != nil {
		mux.Handle("/stats", JSONHandler(s.Stats))
	}
	mux.HandleFunc("/trace", s.handleTrace)
	mux.HandleFunc("/trace.jsonl", s.handleTraceJSONL)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	resp := map[string]any{
		"status":         "ok",
		"uptime_seconds": time.Since(s.start).Seconds(),
	}
	if s.Recorder != nil {
		resp["spans"] = s.Recorder.Len()
		resp["spans_dropped"] = s.Recorder.Dropped()
	}
	_ = json.NewEncoder(w).Encode(resp)
}

// MetricsHandler serves the exposition that write renders, under the
// Prometheus text format's content type.
func MetricsHandler(write func(io.Writer)) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		write(w)
	}
}

// JSONHandler serves what snapshot returns, as indented JSON.
func JSONHandler(snapshot func() any) http.HandlerFunc {
	return func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		if err := enc.Encode(snapshot()); err != nil {
			http.Error(w, err.Error(), http.StatusInternalServerError)
		}
	}
}

func (s *Server) handleTrace(w http.ResponseWriter, _ *http.Request) {
	if s.Recorder == nil {
		http.NotFound(w, nil)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", `attachment; filename="doacross-trace.json"`)
	var extra []Event
	if s.Extra != nil {
		extra = s.Extra()
	}
	_ = WriteChromeTraceMerged(w, s.Recorder.Snapshot(), s.Recorder.Epoch(), extra)
}

func (s *Server) handleTraceJSONL(w http.ResponseWriter, _ *http.Request) {
	if s.Recorder == nil {
		http.NotFound(w, nil)
		return
	}
	w.Header().Set("Content-Type", "application/jsonl")
	_ = s.Recorder.WriteJSONL(w)
}

// Start listens on addr (":0" picks a free port) and serves the admin
// surface in a background goroutine, returning the bound address.
func (s *Server) Start(addr string) (net.Addr, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("obs: listen %s: %w", addr, err)
	}
	s.ln = ln
	s.srv = &http.Server{Handler: s.Handler()}
	go func() { _ = s.srv.Serve(ln) }()
	return ln.Addr(), nil
}

// Shutdown gracefully stops the server started by Start (no-op otherwise):
// the listener closes immediately, but handlers already running — a
// /metrics scrape, a /trace download — finish before Shutdown returns, up
// to ctx's deadline. Past the deadline remaining connections are closed
// hard and ctx's error is returned.
func (s *Server) Shutdown(ctx context.Context) error {
	if s.srv == nil {
		return nil
	}
	if err := s.srv.Shutdown(ctx); err != nil {
		_ = s.srv.Close()
		return err
	}
	return nil
}

// Close stops the server started by Start immediately, dropping in-flight
// requests (no-op otherwise). Prefer Shutdown for orderly teardown.
func (s *Server) Close() error {
	if s.srv == nil {
		return nil
	}
	return s.srv.Close()
}
