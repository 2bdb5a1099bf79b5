package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"runtime"
	"time"

	"doacross/internal/dlx"
	"doacross/internal/pipeline"
	"doacross/internal/server"
)

// restartReps is how often a serve workload restarts its daemon from the
// filled disk tier to take the median restart time as setup_s.
const restartReps = 3

// serveOptions are the daemon's pipeline options: the paper's four
// machines at N=100, one worker per flight.
func serveOptions() pipeline.Options {
	return pipeline.Options{Workers: 1, Machines: dlx.PaperConfigs(), N: paperN}
}

// fillDisk schedules reqs in process through the pipeline with the disk
// tier attached, so every result is written through to dir. The results
// are the library's reference answers. Every served schedule is verified.
func fillDisk(b *bench, dir string, reqs []pipeline.Request) (*pipeline.Batch, error) {
	store, err := pipeline.OpenDiskStore(dir)
	if err != nil {
		return nil, err
	}
	opt := serveOptions()
	opt.Workers = b.nproc
	opt.Cache = pipeline.NewCache()
	opt.Disk = store
	batch, err := pipeline.RunContext(context.Background(), reqs, opt)
	if err != nil {
		return nil, err
	}
	for i := range batch.Loops {
		r := &batch.Loops[i]
		if r.Err != nil {
			return nil, fmt.Errorf("fill: %s: %w", r.Name, r.Err)
		}
		if err := verifySchedules(r); err != nil {
			return nil, fmt.Errorf("fill: %w", err)
		}
	}
	if err := store.Flush(); err != nil {
		return nil, fmt.Errorf("fill: %w", err)
	}
	if st := store.Stats(); st.WriteErrors != 0 {
		return nil, fmt.Errorf("fill: %d disk write errors", st.WriteErrors)
	}
	return batch, nil
}

// daemon is an in-process scheduld listening on loopback.
type daemon struct {
	srv  *server.Server
	addr string // host:port
	url  string
}

// startDaemon builds scheduld over the disk tier in dir (LoadDisk
// re-verifies every entry; "" runs without a disk tier) and starts it on
// loopback, returning how long that took.
func startDaemon(dir string) (*daemon, time.Duration, error) {
	t := time.Now()
	srv, err := server.New(server.Config{Pipeline: serveOptions(), DiskDir: dir})
	if err != nil {
		return nil, 0, err
	}
	addr, err := srv.Start("127.0.0.1:0")
	if err != nil {
		return nil, 0, err
	}
	return &daemon{srv: srv, addr: addr.String(), url: "http://" + addr.String()}, time.Since(t), nil
}

func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	return d.srv.Shutdown(ctx)
}

// restartDaemon restarts scheduld from dir restartReps times, keeping the
// last instance running, and returns it with the median restart time. Each
// restart must load exactly want entries.
func restartDaemon(dir string, want int) (*daemon, time.Duration, error) {
	var d *daemon
	var ts []time.Duration
	for i := 0; i < restartReps; i++ {
		if d != nil {
			if err := d.stop(); err != nil {
				return nil, 0, err
			}
		}
		// Collect the previous instance's cache first, so that peak memory
		// does not depend on when the collector happens to run.
		runtime.GC()
		var took time.Duration
		var err error
		d, took, err = startDaemon(dir)
		if err != nil {
			return nil, 0, err
		}
		ts = append(ts, took)
		ls := d.srv.LoadStats()
		if ls.Loaded != want || ls.Corrupt != 0 || ls.Stale != 0 || ls.Errors != 0 {
			_ = d.stop()
			return nil, 0, fmt.Errorf("restart loaded %s, want %d entries", ls, want)
		}
	}
	return d, medianDur(ts), nil
}

// encodeCall returns one whole POST /v1/schedule request. The loop's name
// is its X-Request-Id, so that the answer's bytes are the same on every
// call.
func encodeCall(name string, body []byte) []byte {
	return fmt.Appendf(nil, "POST /v1/schedule HTTP/1.1\r\nHost: scheduld\r\nContent-Type: application/json\r\n"+
		"X-Request-Id: %s\r\nContent-Length: %d\r\n\r\n%s", name, len(body), body)
}

func encodeRequest(name, src string, n int) []byte {
	body, _ := json.Marshal(server.ScheduleRequest{Name: name, Source: src, N: n})
	return body
}

// conn is one kept-alive client connection, written and read directly
// rather than through net/http's client: the harness then allocates little
// per request, so its garbage does not pace the collector of the daemon it
// shares a process with.
type conn struct {
	nc   net.Conn
	br   *bufio.Reader
	body bytes.Buffer
}

func dial(addr string) (*conn, error) {
	nc, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &conn{nc: nc, br: bufio.NewReaderSize(nc, 16<<10)}, nil
}

func (c *conn) close() { c.nc.Close() }

// do sends one encoded call and returns the answer's status and body. The
// body is valid until the next call.
func (c *conn) do(call []byte) (int, []byte, error) {
	if err := c.nc.SetDeadline(time.Now().Add(time.Minute)); err != nil {
		return 0, nil, err
	}
	if _, err := c.nc.Write(call); err != nil {
		return 0, nil, err
	}
	resp, err := http.ReadResponse(c.br, nil)
	if err != nil {
		return 0, nil, err
	}
	c.body.Reset()
	_, err = c.body.ReadFrom(resp.Body)
	resp.Body.Close()
	if err != nil {
		return 0, nil, err
	}
	return resp.StatusCode, c.body.Bytes(), nil
}

// decodeAnswer decodes a /v1/schedule answer; a non-200 answer is an error.
func decodeAnswer(status int, body []byte) (*server.ScheduleResponse, error) {
	if status != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", status, bytes.TrimSpace(body))
	}
	var sr server.ScheduleResponse
	if err := json.Unmarshal(body, &sr); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return &sr, nil
}

// replay is a loopback HTTP server that answers every request body with a
// recorded answer, doing no scheduling work.
type replay struct {
	srv  *http.Server
	addr string
	done chan struct{}
}

// startReplay starts a replay server answering bodies[k] with answers[k].
func startReplay(bodies, answers [][]byte) (*replay, error) {
	canned := make(map[string][]byte, len(bodies))
	for k, body := range bodies {
		canned[string(body)] = answers[k]
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	r := &replay{addr: ln.Addr().String(), done: make(chan struct{})}
	r.srv = &http.Server{Handler: http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		body, err := io.ReadAll(req.Body)
		out, ok := canned[string(body)]
		if err != nil || !ok {
			http.Error(w, "no recorded answer", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		_, _ = w.Write(out)
	})}
	go func() {
		defer close(r.done)
		_ = r.srv.Serve(ln)
	}()
	return r, nil
}

func (r *replay) stop() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = r.srv.Shutdown(ctx)
	<-r.done
}

// served returns a response's answers.
func served(sr *server.ScheduleResponse) []answer {
	out := make([]answer, len(sr.Machines))
	for i := range sr.Machines {
		out[i] = httpAnswer(&sr.Machines[i])
	}
	return out
}

// daemonStats is the part of GET /stats the benchmark reads.
type daemonStats struct {
	Server server.Stats        `json:"server"`
	Disk   *pipeline.DiskStats `json:"disk"`
}

func (d *daemon) stats() (daemonStats, error) {
	var st daemonStats
	resp, err := http.Get(d.url + "/stats")
	if err != nil {
		return st, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return st, fmt.Errorf("stats: %w", err)
	}
	return st, nil
}

// serveCounters reports the daemon's coalesced and shed shares since an
// earlier snapshot.
func serveCounters(before, after server.Stats) (coalesced, shed float64) {
	req := after.Requests - before.Requests
	if req <= 0 {
		return 0, 0
	}
	sheds := func(s server.Stats) int64 { return s.ShedRate + s.ShedQueue + s.ShedBreaker + s.ShedDraining }
	return float64(after.Coalesced-before.Coalesced) / float64(req),
		float64(sheds(after)-sheds(before)) / float64(req)
}

// pipelineShares reports the daemon pipeline's cache-hit share and the
// share of machine answers that had to simulate (time-cache misses) since
// an earlier snapshot; answers is the number of machine answers served.
func pipelineShares(before, after pipeline.Stats, answers int) (hit, timeMiss float64) {
	h := after.CacheHits - before.CacheHits
	m := after.CacheMisses - before.CacheMisses
	if h+m > 0 {
		hit = float64(h) / float64(h+m)
	}
	if answers > 0 {
		sims := after.Stage(pipeline.StageSimulate).Count - before.Stage(pipeline.StageSimulate).Count
		timeMiss = float64(sims) / float64(answers)
	}
	return hit, timeMiss
}
