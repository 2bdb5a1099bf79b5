package server

import (
	"io"
	"sort"
	"sync/atomic"

	"doacross/internal/obs"
	"doacross/internal/pipeline"
)

// serverMetrics are the daemon-level counters, kept alongside (not inside)
// the pipeline's registry: the pipeline counts compile/schedule/simulate
// work, the daemon counts what happened to requests before and after the
// pipeline ran — coalescing, shedding, breaker trips, response classes.
// They are the first rows of daemonTable, indexed by metric.
type serverMetrics [mBreakerOpens]atomic.Int64

// metric indexes daemonTable, in exposition order; the counters before
// mBreakerOpens are serverMetrics' atomics.
type metric int

const (
	mRequests     metric = iota // /v1/schedule requests received
	mResponsesOK                // 200s served
	mClientErrors               // 4xx (bad JSON, bad source, unknown backend)
	mServerErrors               // 5xx other than sheds
	mTimeouts                   // 504s (caller's deadline expired)
	mFlights                    // singleflight leaders (computations started)
	mCoalesced                  // followers served by another caller's flight
	mShedRate                   // 429s: per-tenant token bucket empty
	mShedQueue                  // 503s: admission queue full or wait cut off
	mShedBreaker                // 503s: backend circuit open
	mShedDraining               // 503s: daemon draining for shutdown
	mNetFaults                  // injected network faults served as 503s
	mBreakerOpens               // exposed only with the breaker enabled
	mInFlight
	mQueueWaiting
	mFlightsLive
	mFlightWaiters
	mDraining
	mDiskEntries // this row and the rest: exposed only with a disk tier
	mDiskWrites
	mDiskWriteErrors
	mDiskReads
	mDiskReadErrors
	mDiskCorrupt
	mDiskQuarantined
	mDiskLoaded
	mDiskLoadStale
	mDiskLoadCorrupt
	numMetrics
)

// Stats is the JSON-marshalable snapshot of the daemon counters for /stats.
type Stats struct {
	Requests     int64 `json:"requests"`
	ResponsesOK  int64 `json:"responses_ok"`
	ClientErrors int64 `json:"client_errors"`
	ServerErrors int64 `json:"server_errors"`
	Timeouts     int64 `json:"timeouts"`
	Flights      int64 `json:"flights"`
	Coalesced    int64 `json:"coalesced"`
	ShedRate     int64 `json:"shed_ratelimit"`
	ShedQueue    int64 `json:"shed_queue"`
	ShedBreaker  int64 `json:"shed_breaker"`
	ShedDraining int64 `json:"shed_draining"`
	BreakerOpens int64 `json:"breaker_opens"`
	NetFaults    int64 `json:"net_faults"`
}

// scrape is one read of everything the daemon exports: the /stats counters
// plus the live gauges and the persistent tier's counters.
type scrape struct {
	Stats
	inFlight, queueWaiting, flightsLive, flightWaiters, draining int64
	disk                                                         pipeline.DiskStats
	loaded, loadStale, loadCorrupt                               int64
}

// daemonTable declares every scheduld_* metric once: its name, help and
// type, and the scrape field it reads.
var daemonTable = [numMetrics]obs.Metric[scrape]{
	mRequests:        {Name: "scheduld_requests_total", Type: obs.Counter, Help: "schedule requests received", Field: func(s *scrape) *int64 { return &s.Requests }},
	mResponsesOK:     {Name: "scheduld_responses_ok_total", Type: obs.Counter, Help: "schedule requests answered 200", Field: func(s *scrape) *int64 { return &s.ResponsesOK }},
	mClientErrors:    {Name: "scheduld_client_errors_total", Type: obs.Counter, Help: "schedule requests answered 4xx (excluding rate-limit sheds)", Field: func(s *scrape) *int64 { return &s.ClientErrors }},
	mServerErrors:    {Name: "scheduld_server_errors_total", Type: obs.Counter, Help: "schedule requests answered 5xx (excluding sheds)", Field: func(s *scrape) *int64 { return &s.ServerErrors }},
	mTimeouts:        {Name: "scheduld_timeouts_total", Type: obs.Counter, Help: "schedule requests answered 504 after the caller's deadline expired", Field: func(s *scrape) *int64 { return &s.Timeouts }},
	mFlights:         {Name: "scheduld_flights_total", Type: obs.Counter, Help: "singleflight computations started (leaders)", Field: func(s *scrape) *int64 { return &s.Flights }},
	mCoalesced:       {Name: "scheduld_coalesced_total", Type: obs.Counter, Help: "requests served by another caller's in-flight computation", Field: func(s *scrape) *int64 { return &s.Coalesced }},
	mShedRate:        {Name: "scheduld_shed_ratelimit_total", Type: obs.Counter, Help: "requests shed 429 by the per-tenant token bucket", Field: func(s *scrape) *int64 { return &s.ShedRate }},
	mShedQueue:       {Name: "scheduld_shed_queue_total", Type: obs.Counter, Help: "requests shed 503 by the bounded admission queue", Field: func(s *scrape) *int64 { return &s.ShedQueue }},
	mShedBreaker:     {Name: "scheduld_shed_breaker_total", Type: obs.Counter, Help: "requests shed 503 by an open backend circuit", Field: func(s *scrape) *int64 { return &s.ShedBreaker }},
	mShedDraining:    {Name: "scheduld_shed_draining_total", Type: obs.Counter, Help: "requests shed 503 while draining for shutdown", Field: func(s *scrape) *int64 { return &s.ShedDraining }},
	mNetFaults:       {Name: "scheduld_net_faults_total", Type: obs.Counter, Help: "injected network faults served as errors", Field: func(s *scrape) *int64 { return &s.NetFaults }},
	mBreakerOpens:    {Name: "scheduld_breaker_open_total", Type: obs.Counter, Help: "circuit-breaker open transitions", Field: func(s *scrape) *int64 { return &s.BreakerOpens }},
	mInFlight:        {Name: "scheduld_inflight", Type: obs.Gauge, Help: "requests holding an admission slot", Field: func(s *scrape) *int64 { return &s.inFlight }},
	mQueueWaiting:    {Name: "scheduld_queue_waiting", Type: obs.Gauge, Help: "requests waiting for an admission slot", Field: func(s *scrape) *int64 { return &s.queueWaiting }},
	mFlightsLive:     {Name: "scheduld_flights_live", Type: obs.Gauge, Help: "singleflight computations currently running", Field: func(s *scrape) *int64 { return &s.flightsLive }},
	mFlightWaiters:   {Name: "scheduld_flight_waiters", Type: obs.Gauge, Help: "callers currently waiting on a flight (leaders included)", Field: func(s *scrape) *int64 { return &s.flightWaiters }},
	mDraining:        {Name: "scheduld_draining", Type: obs.Gauge, Help: "1 while the daemon is draining for shutdown", Field: func(s *scrape) *int64 { return &s.draining }},
	mDiskEntries:     {Name: "scheduld_disk_entries", Type: obs.Gauge, Help: "persistent-tier entries on disk", Field: func(s *scrape) *int64 { return &s.disk.Entries }},
	mDiskWrites:      {Name: "scheduld_disk_writes_total", Type: obs.Counter, Help: "persistent-tier writes", Field: func(s *scrape) *int64 { return &s.disk.Writes }},
	mDiskWriteErrors: {Name: "scheduld_disk_write_errors_total", Type: obs.Counter, Help: "persistent-tier write failures (request unaffected)", Field: func(s *scrape) *int64 { return &s.disk.WriteErrors }},
	mDiskReads:       {Name: "scheduld_disk_reads_total", Type: obs.Counter, Help: "persistent-tier reads", Field: func(s *scrape) *int64 { return &s.disk.Reads }},
	mDiskReadErrors:  {Name: "scheduld_disk_read_errors_total", Type: obs.Counter, Help: "persistent-tier read failures", Field: func(s *scrape) *int64 { return &s.disk.ReadErrors }},
	mDiskCorrupt:     {Name: "scheduld_disk_corrupt_total", Type: obs.Counter, Help: "persistent-tier entries that failed integrity checks", Field: func(s *scrape) *int64 { return &s.disk.Corrupt }},
	mDiskQuarantined: {Name: "scheduld_disk_quarantined_total", Type: obs.Counter, Help: "persistent-tier entries moved to quarantine", Field: func(s *scrape) *int64 { return &s.disk.Quarantined }},
	mDiskLoaded:      {Name: "scheduld_disk_loaded", Type: obs.Gauge, Help: "entries restored warm from disk at startup", Field: func(s *scrape) *int64 { return &s.loaded }},
	mDiskLoadStale:   {Name: "scheduld_disk_load_stale", Type: obs.Gauge, Help: "disk entries skipped at startup (produced under other options)", Field: func(s *scrape) *int64 { return &s.loadStale }},
	mDiskLoadCorrupt: {Name: "scheduld_disk_load_corrupt", Type: obs.Gauge, Help: "disk entries quarantined at startup", Field: func(s *scrape) *int64 { return &s.loadCorrupt }},
}

// snapshot reads the daemon's counters and gauges.
func (s *Server) snapshot() scrape {
	var sc scrape
	for i := range s.sm {
		*daemonTable[i].Field(&sc) = s.sm[i].Load()
	}
	if s.breakers != nil {
		sc.BreakerOpens = s.breakers.opens.Load()
	}
	sc.inFlight, sc.queueWaiting = s.adm.inFlight(), s.adm.queued()
	flights, waiters := s.flights.Stats()
	sc.flightsLive, sc.flightWaiters = int64(flights), int64(waiters)
	if s.draining.Load() {
		sc.draining = 1
	}
	if s.disk != nil {
		sc.disk = s.disk.Stats()
		sc.loaded, sc.loadStale, sc.loadCorrupt = int64(s.loadStats.Loaded), int64(s.loadStats.Stale), int64(s.loadStats.Corrupt)
	}
	return sc
}

// writePrometheus is the daemon's /metrics exposition: the pipeline's
// doacross_* metrics, then the scheduld_* ones, so one scrape covers both
// layers.
func (s *Server) writePrometheus(w io.Writer) {
	s.metrics.WritePrometheus(w)
	sc := s.snapshot()
	obs.WriteMetrics(w, &sc, daemonTable[:mBreakerOpens])
	if s.breakers != nil {
		obs.WriteMetrics(w, &sc, daemonTable[mBreakerOpens:mInFlight])
		states := s.breakers.states()
		samples := make([]obs.Sample, 0, len(states))
		for name, state := range states {
			samples = append(samples, obs.Sample{Label: name, Value: int64(state)})
		}
		sort.Slice(samples, func(i, j int) bool { return samples[i].Label < samples[j].Label })
		obs.WriteFamily(w, "scheduld_breaker_state", "circuit state per backend (0 closed, 1 open, 2 half-open)", obs.Gauge, "backend", samples)
	}
	obs.WriteMetrics(w, &sc, daemonTable[mInFlight:mDiskEntries])
	if s.disk != nil {
		obs.WriteMetrics(w, &sc, daemonTable[mDiskEntries:])
	}
}

// stats is the daemon's /stats snapshot.
func (s *Server) stats() any {
	sc := s.snapshot()
	resp := map[string]any{
		"server":   sc.Stats,
		"pipeline": s.metrics.Stats(),
	}
	if s.disk != nil {
		resp["disk"] = sc.disk
		resp["load"] = s.loadStats
	}
	return resp
}
