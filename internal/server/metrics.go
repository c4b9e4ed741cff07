package server

import (
	"sort"
	"sync"
	"time"

	"filtermap/internal/cluster"
	"filtermap/internal/engine"
	"filtermap/internal/monitor"
)

// metrics aggregates everything GET /metrics reports: per-endpoint
// request counters and latencies, cache effectiveness, per-kind pipeline
// run counts, and the engine's per-stage Stats/Observer streams bridged
// from every world the server builds.
type metrics struct {
	mu        sync.Mutex
	startedAt time.Time
	endpoints map[string]*endpointStats
	hits      uint64
	misses    uint64
	coalesced uint64
	limited   uint64
	runs      map[string]uint64
	// runsDegraded counts, per kind, runs whose report came back with a
	// Degraded marker (partial results under fault injection).
	runsDegraded map[string]uint64

	snapshots        uint64
	snapshotsDeduped uint64
	diffs            uint64

	// engineStats is installed into every world's engine config, so
	// pipeline stages report here across runs.
	engineStats *engine.Stats
}

type endpointStats struct {
	requests uint64
	errors   uint64
	totalLat time.Duration
	maxLat   time.Duration
}

func newMetrics(now time.Time) *metrics {
	return &metrics{
		startedAt:    now,
		endpoints:    make(map[string]*endpointStats),
		runs:         make(map[string]uint64),
		runsDegraded: make(map[string]uint64),
		engineStats:  engine.NewStats(),
	}
}

// record accounts one finished HTTP request against its route pattern.
func (m *metrics) record(route string, status int, elapsed time.Duration) {
	m.mu.Lock()
	defer m.mu.Unlock()
	es, ok := m.endpoints[route]
	if !ok {
		es = &endpointStats{}
		m.endpoints[route] = es
	}
	es.requests++
	if status >= 400 {
		es.errors++
	}
	es.totalLat += elapsed
	if elapsed > es.maxLat {
		es.maxLat = elapsed
	}
}

func (m *metrics) cacheHit()    { m.mu.Lock(); m.hits++; m.mu.Unlock() }
func (m *metrics) cacheMiss()   { m.mu.Lock(); m.misses++; m.mu.Unlock() }
func (m *metrics) cacheShared() { m.mu.Lock(); m.coalesced++; m.mu.Unlock() }
func (m *metrics) rateLimited() { m.mu.Lock(); m.limited++; m.mu.Unlock() }

// snapshotRecorded accounts one POST /v1/snapshots append (deduped when
// the store collapsed it onto an existing record).
func (m *metrics) snapshotRecorded(deduped bool) {
	m.mu.Lock()
	m.snapshots++
	if deduped {
		m.snapshotsDeduped++
	}
	m.mu.Unlock()
}

// diffComputed accounts one longitudinal diff execution (cache misses
// only; cached diffs count as cache hits).
func (m *metrics) diffComputed() { m.mu.Lock(); m.diffs++; m.mu.Unlock() }

// run accounts one underlying pipeline execution of the given kind.
func (m *metrics) run(kind string) {
	m.mu.Lock()
	m.runs[kind]++
	m.mu.Unlock()
}

// runDegraded accounts one pipeline execution that completed with
// partial results.
func (m *metrics) runDegraded(kind string) {
	m.mu.Lock()
	m.runsDegraded[kind]++
	m.mu.Unlock()
}

// MetricsDoc is the GET /metrics response body.
type MetricsDoc struct {
	UptimeSeconds float64                `json:"uptime_seconds"`
	Endpoints     map[string]EndpointDoc `json:"endpoints"`
	Cache         CacheDoc               `json:"cache"`
	Jobs          JobCountsDoc           `json:"jobs"`
	Runs          map[string]uint64      `json:"runs"`
	// RunsDegraded counts runs that completed with partial results,
	// per kind (omitted while empty).
	RunsDegraded map[string]uint64 `json:"runs_degraded,omitempty"`
	RateLimited  uint64            `json:"rate_limited"`
	Snapshots    SnapshotCountsDoc `json:"snapshots"`
	Engine       engine.Snapshot   `json:"engine"`
	// Monitor carries the continuous-measurement scheduler counters
	// (omitted when the monitor is disabled).
	Monitor *monitor.Counters `json:"monitor,omitempty"`
	// Watch is the /v1/watch fan-out census.
	Watch WatchDoc `json:"watch"`
	// Cluster carries the coordinator's shard/lease/steal counters
	// (omitted when cluster mode is off).
	Cluster *ClusterMetricsDoc `json:"cluster,omitempty"`
	// Replica carries the replication-log follower's census (omitted
	// unless this server tails a coordinator's log).
	Replica *cluster.FollowerCounters `json:"replica,omitempty"`
}

// ClusterMetricsDoc is the coordinator's /metrics entry.
type ClusterMetricsDoc struct {
	Role string `json:"role"`
	// Workers counts live ring members.
	Workers  int              `json:"workers"`
	Counters cluster.Counters `json:"counters"`
}

// WatchDoc is the event-stream fan-out census: live subscribers, events
// delivered to subscriber channels, subscribers dropped for falling
// behind, and the newest event ID.
type WatchDoc struct {
	Subscribers int    `json:"subscribers"`
	Delivered   uint64 `json:"events_delivered"`
	Dropped     uint64 `json:"subscribers_dropped"`
	LastEventID uint64 `json:"last_event_id"`
}

// EndpointDoc is one route's counters.
type EndpointDoc struct {
	Requests  uint64 `json:"requests"`
	Errors    uint64 `json:"errors"`
	MeanLatNs int64  `json:"mean_latency_ns"`
	MaxLatNs  int64  `json:"max_latency_ns"`
}

// CacheDoc is the result cache's effectiveness counters. Hits are
// served straight from the cache; coalesced requests joined an in-flight
// identical run (singleflight); misses triggered a pipeline execution.
type CacheDoc struct {
	Hits      uint64 `json:"hits"`
	Misses    uint64 `json:"misses"`
	Coalesced uint64 `json:"coalesced"`
	Entries   int    `json:"entries"`
}

// SnapshotCountsDoc is the longitudinal layer's counters: snapshot
// appends (and how many deduped onto existing records) plus computed
// diffs.
type SnapshotCountsDoc struct {
	Recorded uint64 `json:"recorded"`
	Deduped  uint64 `json:"deduped"`
	Diffs    uint64 `json:"diffs"`
	Stored   int    `json:"stored"`
}

// JobCountsDoc is the job manager's state census.
type JobCountsDoc struct {
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
}

// snapshot freezes every counter into the /metrics document.
func (m *metrics) snapshot(now time.Time, cacheEntries int, jobs JobCountsDoc, snapsStored int) MetricsDoc {
	m.mu.Lock()
	doc := MetricsDoc{
		UptimeSeconds: now.Sub(m.startedAt).Seconds(),
		Endpoints:     make(map[string]EndpointDoc, len(m.endpoints)),
		Cache: CacheDoc{
			Hits:      m.hits,
			Misses:    m.misses,
			Coalesced: m.coalesced,
			Entries:   cacheEntries,
		},
		Jobs:        jobs,
		Runs:        make(map[string]uint64, len(m.runs)),
		RateLimited: m.limited,
		Snapshots: SnapshotCountsDoc{
			Recorded: m.snapshots,
			Deduped:  m.snapshotsDeduped,
			Diffs:    m.diffs,
			Stored:   snapsStored,
		},
	}
	for route, es := range m.endpoints {
		ed := EndpointDoc{Requests: es.requests, Errors: es.errors, MaxLatNs: int64(es.maxLat)}
		if es.requests > 0 {
			ed.MeanLatNs = int64(es.totalLat) / int64(es.requests)
		}
		doc.Endpoints[route] = ed
	}
	for kind, n := range m.runs {
		doc.Runs[kind] = n
	}
	if len(m.runsDegraded) > 0 {
		doc.RunsDegraded = make(map[string]uint64, len(m.runsDegraded))
		for kind, n := range m.runsDegraded {
			doc.RunsDegraded[kind] = n
		}
	}
	m.mu.Unlock()

	doc.Engine = m.engineStats.Snapshot()
	sort.Slice(doc.Engine.Stages, func(i, j int) bool { return doc.Engine.Stages[i].Stage < doc.Engine.Stages[j].Stage })
	return doc
}
