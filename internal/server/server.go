// Package server is the fmserve service layer: an HTTP JSON API that
// exposes the identify/confirm/characterize pipelines over a long-lived
// World, with a TTL result cache and singleflight deduplication on the
// hot path, a background job manager for long-running scans and Table 3
// campaigns, per-client token-bucket rate limiting, request-size limits,
// and a metrics endpoint bridging the engine's Stats/Observer streams.
//
// Endpoints:
//
//	POST /v1/identify      §3 pipeline   (sync when cached; ?wait=1 blocks; else enqueues)
//	POST /v1/confirm       §4 campaigns  (same dispatch)
//	POST /v1/characterize  §5 runs       (same dispatch)
//	POST /v1/discover      crawl-based blocked-URL discovery (same dispatch)
//	POST /v1/mechanisms    DNS/RST/SNI mechanism survey (same dispatch)
//	POST /v1/jobs          submit a background job {kind, request}
//	GET  /v1/jobs          list jobs
//	GET  /v1/jobs/{id}     job state + result
//	DELETE /v1/jobs/{id}   cancel
//	GET  /v1/reports/{kind}  table1|table3|table4|figure1|installations|mechanisms (sync)
//	GET  /healthz          liveness
//	GET  /metrics          request/cache/job/engine counters
//
// Execution: the four plan kinds (identify, characterize, discover,
// mechanisms) come from the internal/plan registry and run on a
// plan.Runner as a one-shard cluster — or split across workers in
// cluster mode — so a standalone and a clustered server run the same
// code. The runner adopts the server's long-lived base world as the
// identify replica for the base options, with a banner index scanned
// once and reused. Confirmation builds a fresh world per execution
// because campaigns consume the virtual timeline (clock advancement,
// vendor submissions).
package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"sort"
	"strings"
	"sync"
	"time"

	"filtermap/internal/cluster"
	"filtermap/internal/confirm"
	"filtermap/internal/engine"
	"filtermap/internal/monitor"
	"filtermap/internal/plan"
	"filtermap/internal/report"
	"filtermap/internal/store"
	"filtermap/internal/version"
	"filtermap/internal/world"
)

// Pipeline kinds the server's handlers name: plan registry kinds plus
// confirm, which is not a plan.
const (
	KindIdentify     = plan.KindIdentify
	KindConfirm      = "confirm"
	KindCharacterize = plan.KindCharacterize
	KindMechanisms   = plan.KindMechanisms
)

// Options configures a Server. The zero value serves the default world
// with a 5-minute cache, two job workers, no rate limit, and a 1 MiB
// request-size cap.
type Options struct {
	// World configures the base simulated Internet the server holds for
	// its lifetime.
	World world.Options
	// CacheTTL bounds result-cache entry lifetime (0 = 5m; < 0 disables
	// caching while keeping singleflight deduplication).
	CacheTTL time.Duration
	// CacheEntries bounds the cache size (0 = 256).
	CacheEntries int
	// JobWorkers sizes the background job pool (0 = 2).
	JobWorkers int
	// RatePerSec enables per-client token-bucket rate limiting when > 0.
	RatePerSec float64
	// RateBurst is the bucket depth (0 = 8; only meaningful with
	// RatePerSec).
	RateBurst int
	// MaxRequestBytes caps request bodies (0 = 1 MiB).
	MaxRequestBytes int64
	// StoreDir roots the longitudinal snapshot store ("" = in-memory:
	// snapshots work but do not survive the process).
	StoreDir string
	// Monitor enables the continuous-measurement scheduler (nil =
	// disabled; /v1/watch still serves, streaming snapshot-append events
	// from the API surface). The monitor churns its own world and appends
	// to the server's store and broker; no world the API answers from
	// changes, so its ticks leave cached documents alone.
	Monitor *monitor.Options
	// WatchRetain bounds the /v1/watch replay tail (0 = broker default).
	WatchRetain int
	// Cluster enables coordinator-mode scan-out: shardable pipeline
	// requests (identify/characterize/discover/mechanisms) fan out to
	// workers over /v1/cluster/* instead of running in-process (nil =
	// single-process execution).
	Cluster *ClusterOptions
	// ClusterToken, when set, protects the /v1/cluster/* worker and
	// replication-log endpoints: requests must carry it in the
	// X-Cluster-Token header or they are rejected with 401, and only
	// authenticated cluster requests bypass the rate limiter. Empty
	// leaves the protocol open (trusted-network deployments). The same
	// token authenticates this server's outgoing Follow polling.
	ClusterToken string
	// Follow makes this server a read-only serving replica: it tails the
	// named server's replication log (GET /v1/cluster/log) into its own
	// snapshot store, which nothing else may write. POST /v1/snapshots
	// answers 409 naming the leader, and New refuses Monitor.
	Follow string
	// FollowInterval paces the log polling (0 = 2s; with Follow).
	FollowInterval time.Duration

	// now substitutes the clock in tests (nil = time.Now).
	now func() time.Time
}

// Server is the HTTP service. It implements http.Handler.
type Server struct {
	opts    Options
	engOpts []engine.Option
	handler http.Handler

	metrics *metrics
	cache   *resultCache
	flight  *flightGroup
	jobs    *jobManager
	limiter *rateLimiter

	base   *world.World
	runner *plan.Runner // executes plan kinds; adopts base as a replica

	snaps   *store.Store
	diffEng *plan.DiffEngine

	broker *monitor.Broker
	mon    *monitor.Monitor

	clusterRt    *clusterRuntime
	follower     *cluster.Follower
	followCancel context.CancelFunc
	followWg     sync.WaitGroup

	// execHook intercepts pipeline executions in tests (nil in
	// production).
	execHook func(ctx context.Context, kind string) error

	closeOnce sync.Once
}

// New builds the server and its long-lived base world. Engine options
// (filtermap.WithWorkers, ...) tune every world the server constructs;
// the server always adds its own stats registry so /metrics sees every
// pipeline stage.
func New(opts Options, engOpts ...engine.Option) (*Server, error) {
	if opts.Follow != "" && opts.Monitor != nil {
		return nil, errors.New("server: a follower's store takes only the leader's records, so Follow and Monitor cannot be combined")
	}
	if opts.CacheTTL == 0 {
		opts.CacheTTL = 5 * time.Minute
	}
	if opts.CacheEntries <= 0 {
		opts.CacheEntries = 256
	}
	if opts.MaxRequestBytes == 0 {
		opts.MaxRequestBytes = 1 << 20
	}
	if opts.now == nil {
		opts.now = time.Now
	}

	s := &Server{
		opts:    opts,
		metrics: newMetrics(opts.now()),
		flight:  newFlightGroup(),
	}
	s.cache = newResultCache(opts.CacheTTL, opts.CacheEntries, opts.now)
	s.limiter = newRateLimiter(opts.RatePerSec, opts.RateBurst, opts.now)

	// Bridge every world's engine into the metrics registry; a
	// caller-supplied observer stays in engOpts.
	s.engOpts = append(append([]engine.Option{}, engOpts...), engine.WithStats(s.metrics.engineStats))

	base, err := world.Build(opts.World, s.engOpts...)
	if err != nil {
		return nil, fmt.Errorf("server: build base world: %w", err)
	}
	s.base = base
	s.runner = plan.NewRunner(s.engOpts...)
	s.runner.Adopt(opts.World, base)

	s.snaps, err = store.Open(opts.StoreDir)
	if err != nil {
		base.Close()
		return nil, fmt.Errorf("server: open snapshot store: %w", err)
	}
	s.diffEng = &plan.DiffEngine{Config: engine.NewConfig(s.engOpts...)}

	s.broker = monitor.NewBroker(opts.WatchRetain)

	if opts.Monitor != nil {
		mo := *opts.Monitor
		mo.Broker = s.broker
		if mo.World == (world.Options{}) {
			mo.World = opts.World
		}
		if len(mo.Engine) == 0 {
			mo.Engine = s.engOpts
		}
		s.mon, err = monitor.New(mo, s.snaps)
		if err != nil {
			s.snaps.Close() //nolint:errcheck // constructor teardown
			base.Close()
			return nil, fmt.Errorf("server: build monitor: %w", err)
		}
	}

	if opts.Cluster != nil {
		s.startCluster(*opts.Cluster)
	}
	if opts.Follow != "" {
		s.follower = &cluster.Follower{
			URL:      opts.Follow,
			Token:    opts.ClusterToken,
			Store:    s.snaps,
			Interval: opts.FollowInterval,
			OnApply: func(meta store.Meta) {
				s.broker.Publish(monitor.Event{
					At: meta.At, Type: monitor.EventSnapshot,
					Plan: "replica", Kind: meta.Kind,
					Seq: meta.Seq, SnapshotID: meta.ID,
					Note: meta.Note,
				})
			},
		}
		ctx, cancel := context.WithCancel(context.Background())
		s.followCancel = cancel
		s.followWg.Add(1)
		go func() {
			defer s.followWg.Done()
			s.follower.Run(ctx) //nolint:errcheck // exits on cancel
		}()
	}

	s.jobs = newJobManager(opts.JobWorkers, opts.now, func(ctx context.Context, j *job) ([]byte, error) {
		return s.cachedRun(ctx, j.kind, j.key, j.req)
	})

	mux := http.NewServeMux()
	handle := func(pattern string, h http.HandlerFunc) {
		mux.Handle(pattern, s.instrument(pattern, h))
	}
	for _, kind := range plan.Kinds() {
		handle("POST /v1/"+kind, s.handlePlan(kind))
	}
	handle("POST /v1/confirm", s.handleConfirm)
	handle("POST /v1/jobs", s.handleJobSubmit)
	handle("GET /v1/jobs", s.handleJobList)
	handle("GET /v1/jobs/{id}", s.handleJobGet)
	handle("DELETE /v1/jobs/{id}", s.handleJobCancel)
	handle("GET /v1/reports/{kind}", s.handleReport)
	handle("POST /v1/snapshots", s.handleSnapshotRecord)
	handle("GET /v1/snapshots", s.handleSnapshotList)
	handle("GET /v1/snapshots/{id}", s.handleSnapshotGet)
	handle("GET /v1/diff", s.handleDiff)
	handle("GET /v1/watch", s.handleWatch)
	handle("GET /v1/monitor", s.handleMonitorStatus)
	handle("POST /v1/monitor/tick", s.handleMonitorTick)
	handle("POST /v1/cluster/lease", s.handleClusterLease)
	handle("POST /v1/cluster/result", s.handleClusterResult)
	handle("POST /v1/cluster/heartbeat", s.handleClusterHeartbeat)
	handle("POST /v1/cluster/release", s.handleClusterRelease)
	handle("GET /v1/cluster", s.handleClusterStatus)
	handle("GET /v1/cluster/log", s.handleClusterLog)
	handle("GET /healthz", s.handleHealthz)
	handle("GET /metrics", s.handleMetrics)
	s.handler = s.root(mux)
	return s, nil
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	s.handler.ServeHTTP(w, r)
}

// Shutdown drains gracefully: job intake stops, workers finish the queue
// and every in-flight job (hard-canceling only if ctx expires), then the
// base world closes. The HTTP listener is the caller's to stop first
// (http.Server.Shutdown).
func (s *Server) Shutdown(ctx context.Context) error {
	err := s.jobs.shutdown(ctx)
	s.closeOnce.Do(func() {
		if s.followCancel != nil {
			s.followCancel()
			s.followWg.Wait()
		}
		s.clusterRt.stop()
		if s.mon != nil {
			s.mon.Close()
		}
		s.runner.Close()
		s.base.Close()
		if serr := s.snaps.Close(); serr != nil && err == nil {
			err = serr
		}
	})
	return err
}

// root is the outermost middleware: rate limiting (healthz and the
// authenticated cluster worker/replica protocol exempt) and the
// request-size cap. An unauthenticated request to a cluster path gets
// no exemption: it pays the rate limiter like any other client before
// the handler rejects it with 401.
func (s *Server) root(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		exempt := r.URL.Path == "/healthz" ||
			(clusterPath(r.URL.Path) && s.clusterAuthorized(r))
		if !exempt && !s.limiter.allow(clientKey(r)) {
			s.metrics.rateLimited()
			w.Header().Set("Retry-After", "1")
			jsonError(w, http.StatusTooManyRequests, "rate limit exceeded")
			return
		}
		if r.Body != nil && s.opts.MaxRequestBytes > 0 {
			r.Body = http.MaxBytesReader(w, r.Body, s.opts.MaxRequestBytes)
		}
		next.ServeHTTP(w, r)
	})
}

// clientKey identifies the requester for rate limiting: the API key
// header when present, else the remote host.
func clientKey(r *http.Request) string {
	if k := r.Header.Get("X-API-Key"); k != "" {
		return "key:" + k
	}
	host, _, err := net.SplitHostPort(r.RemoteAddr)
	if err != nil {
		return "addr:" + r.RemoteAddr
	}
	return "addr:" + host
}

// instrument records per-endpoint request counts and latencies.
func (s *Server) instrument(route string, next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		start := s.opts.now()
		sw := &statusWriter{ResponseWriter: w, status: http.StatusOK}
		next.ServeHTTP(sw, r)
		s.metrics.record(route, sw.status, s.opts.now().Sub(start))
	})
}

type statusWriter struct {
	http.ResponseWriter
	status int
}

func (w *statusWriter) WriteHeader(status int) {
	w.status = status
	w.ResponseWriter.WriteHeader(status)
}

// Flush forwards streaming flushes so /v1/watch can serve SSE through
// the instrumentation wrapper.
func (w *statusWriter) Flush() {
	if f, ok := w.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// ---- request types ----

// WorldConfig selects the Table 5 evasion scenarios and ablations for a
// run. The zero value means the server's base world options, unchanged;
// any flag set replaces the base's flags and runs on a world built for
// those options.
type WorldConfig struct {
	HideConsoles      bool `json:"hide_consoles,omitempty"`
	ScrubHeaders      bool `json:"scrub_headers,omitempty"`
	FilterSubmissions bool `json:"filter_submissions,omitempty"`
	DisableDuSyncLag  bool `json:"disable_du_sync_lag,omitempty"`
	// Mechanisms enables the DNS/RST/SNI censoring-ISP roster (the
	// mechanism survey's world). Kept a bool so WorldConfig stays
	// comparable; options() expands it to world.MechanismOptions.
	Mechanisms bool `json:"mechanisms,omitempty"`
}

// options resolves the overlay against the server's base world options
// (keeping seed, start time, scale and chaos settings). This is the one
// place a request's world is decided: it feeds the cache key, the
// snapshot config hash and the runner's replica choice, so a zero
// overlay reuses the base world exactly.
func (c WorldConfig) options(base world.Options) world.Options {
	if c == (WorldConfig{}) {
		return base
	}
	base.HideConsoles = c.HideConsoles
	base.ScrubHeaders = c.ScrubHeaders
	base.FilterSubmissions = c.FilterSubmissions
	base.DisableDuSyncLag = c.DisableDuSyncLag
	if c.Mechanisms {
		base.Mechanisms = &world.MechanismOptions{}
	} else {
		base.Mechanisms = nil
	}
	return base
}

// PlanRequest is the body of POST /v1/{identify,characterize,discover,
// mechanisms} and of their job and snapshot requests. Each kind reads
// only its own fields; normalization clears the rest.
type PlanRequest struct {
	// Products restricts the identify keyword fan-out (empty = all
	// Table 2 products).
	Products []string `json:"products,omitempty"`
	// Countries picks the ccTLDs of the identify "country:" keyword
	// queries (empty = every country in the banner index). It never
	// narrows the document: the bare keyword queries always run, and a
	// filtered query's hits are a subset of theirs.
	Countries []string `json:"countries,omitempty"`
	// ISPs restricts the characterize/discover targets (empty = all
	// confirmed deployments) or the mechanism survey (empty = the whole
	// mechanism roster).
	ISPs []string `json:"isps,omitempty"`
	// Rounds and Budget cap each discovery crawl (0 = discovery package
	// defaults).
	Rounds int `json:"rounds,omitempty"`
	Budget int `json:"budget,omitempty"`
	// World selects evasion scenarios; the mechanism survey always runs
	// with the censoring roster on.
	World WorldConfig `json:"world,omitempty"`
}

// IdentifyRequest is PlanRequest by the name identify callers use.
type IdentifyRequest = PlanRequest

// ConfirmRequest parameterizes POST /v1/confirm.
type ConfirmRequest struct {
	// Campaign selects one Table 3 case study by key (empty = all ten,
	// chronologically).
	Campaign string `json:"campaign,omitempty"`
	// World selects evasion scenarios for the campaign world.
	World WorldConfig `json:"world,omitempty"`
}

// planRequest resolves a body against the base world options and
// normalizes it through the kind's plan descriptor.
func (s *Server) planRequest(kind string, body PlanRequest) (*plan.Request, error) {
	req := &plan.Request{
		Kind:      kind,
		World:     body.World.options(s.opts.World),
		Products:  body.Products,
		Countries: body.Countries,
		ISPs:      body.ISPs,
		Rounds:    body.Rounds,
		Budget:    body.Budget,
	}
	if err := plan.Normalize(req); err != nil {
		return nil, badRequestf("%s", err.Error())
	}
	return req, nil
}

// requestKey derives the cache/singleflight key from a normalized
// request: kind, the effective world-config hash (the same hash the
// snapshot store records), and the request's deterministic JSON
// encoding. Hashing the *effective* options keeps results from one
// base-world configuration from being served after the server is
// restarted onto another.
func (s *Server) requestKey(kind string, req any) string {
	body := req
	if r, ok := req.(*plan.Request); ok {
		// A plan request's world enters the key through its hash; the
		// shadowing field keeps the options out of the JSON, so the hot
		// path marshals them once.
		body = struct {
			*plan.Request
			World *struct{} `json:"world,omitempty"`
		}{Request: r}
	}
	b, err := json.Marshal(body)
	if err != nil {
		// Request types marshal by construction; a failure here is a
		// programming error, and an unshareable key is the safe fallback.
		return kind + ":unmarshalable"
	}
	return kind + ":" + store.ConfigHash(s.worldOptions(req)) + ":" + string(b)
}

// worldOptions returns the effective world options a request runs under.
func (s *Server) worldOptions(req any) world.Options {
	if r, ok := req.(*plan.Request); ok {
		return r.World
	}
	return req.(*ConfirmRequest).World.options(s.opts.World)
}

// ---- dispatch: cache -> singleflight -> pipeline ----

// cachedRun executes kind once per canonical key: concurrent identical
// requests share one pipeline run via singleflight, and completed
// results live in the TTL cache.
func (s *Server) cachedRun(ctx context.Context, kind, key string, req any) ([]byte, error) {
	val, err, shared := s.flight.do(key, func() ([]byte, error) {
		if val, ok := s.cache.get(key); ok {
			s.metrics.cacheHit()
			return val, nil
		}
		s.metrics.cacheMiss()
		val, err := s.execute(ctx, kind, req)
		if err != nil {
			return nil, err
		}
		s.cache.put(key, val)
		return val, nil
	})
	if shared {
		s.metrics.cacheShared()
	}
	return val, err
}

// execute runs one pipeline and marshals its document.
func (s *Server) execute(ctx context.Context, kind string, req any) ([]byte, error) {
	if s.execHook != nil {
		if err := s.execHook(ctx, kind); err != nil {
			return nil, err
		}
	}
	s.metrics.run(kind)
	doc, degraded, err := s.run(ctx, req)
	if err != nil {
		return nil, err
	}
	if degraded {
		s.metrics.runDegraded(kind)
	}
	return json.Marshal(doc)
}

// run executes one request. A plan runs on the coordinator's workers in
// cluster mode and otherwise as a one-shard cluster on the server's
// runner; a confirmation campaign runs in-process.
func (s *Server) run(ctx context.Context, req any) (any, bool, error) {
	r, ok := req.(*plan.Request)
	switch {
	case !ok:
		doc, err := s.runConfirm(ctx, req.(*ConfirmRequest))
		return doc, doc.Degraded, err
	case s.clusterRt != nil:
		return s.clusterRt.coord.Run(ctx, *r)
	default:
		return s.runner.Run(ctx, *r)
	}
}

// runConfirm executes §4 campaigns, always on a fresh world: a campaign
// advances the virtual clock and feeds vendor submission queues, so the
// timeline is single-use.
func (s *Server) runConfirm(ctx context.Context, req *ConfirmRequest) (report.Table3Doc, error) {
	w, err := world.Build(req.World.options(s.opts.World), s.engOpts...)
	if err != nil {
		return report.Table3Doc{}, err
	}
	defer w.Close()
	if req.Campaign == "" {
		outcomes, err := w.RunTable3(ctx)
		if err != nil {
			return report.Table3Doc{}, err
		}
		return report.Table3JSON(outcomes), nil
	}
	outcome, err := w.RunPlan(ctx, req.Campaign)
	if err != nil {
		if errors.Is(err, world.ErrUnknownPlan) {
			return report.Table3Doc{}, badRequestf("unknown campaign %q", req.Campaign)
		}
		return report.Table3Doc{}, err
	}
	return report.Table3JSON([]*confirm.Outcome{outcome}), nil
}

// ---- handlers ----

// handlePlan serves POST /v1/{kind} for one plan kind.
func (s *Server) handlePlan(kind string) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		var body PlanRequest
		if !s.decodeBody(w, r, &body) {
			return
		}
		req, err := s.planRequest(kind, body)
		if err != nil {
			jsonError(w, http.StatusBadRequest, err.Error())
			return
		}
		s.dispatch(w, r, kind, req)
	}
}

func (s *Server) handleConfirm(w http.ResponseWriter, r *http.Request) {
	var req ConfirmRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	req.Campaign = strings.TrimSpace(req.Campaign)
	if err := s.validateCampaign(req.Campaign); err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	s.dispatch(w, r, KindConfirm, &req)
}

// validateCampaign rejects unknown campaign keys against the base
// world's plan list, before any fresh world is built for the run.
func (s *Server) validateCampaign(key string) error {
	if key == "" {
		return nil
	}
	for _, k := range s.base.PlanKeys() {
		if k == key {
			return nil
		}
	}
	return badRequestf("unknown campaign %q", key)
}

// dispatch implements the pipeline endpoints' contract: synchronous when
// the result is cached, otherwise enqueued as a background job (202 +
// Location) — unless ?wait=1, which blocks through the singleflight for
// the result.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request, kind string, req any) {
	key := s.requestKey(kind, req)
	if val, ok := s.cache.get(key); ok {
		s.metrics.cacheHit()
		writeRawJSON(w, http.StatusOK, s.maybeAttachStats(r, val))
		return
	}
	if wantsWait(r) {
		val, err := s.cachedRun(r.Context(), kind, key, req)
		if err != nil {
			jsonError(w, errorStatus(err), err.Error())
			return
		}
		writeRawJSON(w, http.StatusOK, s.maybeAttachStats(r, val))
		return
	}
	j, existing, err := s.jobs.submit(kind, key, req)
	if err != nil {
		jsonError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	status := http.StatusAccepted
	if existing {
		status = http.StatusOK
	}
	writeJSON(w, status, s.jobs.doc(j, false))
}

func wantsWait(r *http.Request) bool {
	switch r.URL.Query().Get("wait") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// jobSubmitRequest is the POST /v1/jobs body.
type jobSubmitRequest struct {
	Kind    string          `json:"kind"`
	Request json.RawMessage `json:"request,omitempty"`
}

func (s *Server) handleJobSubmit(w http.ResponseWriter, r *http.Request) {
	var body jobSubmitRequest
	if !s.decodeBody(w, r, &body) {
		return
	}
	req, err := s.parseKindRequest(body.Kind, body.Request)
	if err != nil {
		jsonError(w, errorStatus(err), err.Error())
		return
	}
	key := s.requestKey(body.Kind, req)
	j, existing, err := s.jobs.submit(body.Kind, key, req)
	if err != nil {
		jsonError(w, http.StatusServiceUnavailable, err.Error())
		return
	}
	w.Header().Set("Location", "/v1/jobs/"+j.id)
	status := http.StatusCreated
	if existing {
		status = http.StatusOK
	}
	writeJSON(w, status, s.jobs.doc(j, false))
}

// parseKindRequest decodes and normalizes a kind-specific request body.
func (s *Server) parseKindRequest(kind string, raw json.RawMessage) (any, error) {
	if kind != KindConfirm {
		return s.parsePlanRequest(kind, raw, "unknown job kind %q")
	}
	var req ConfirmRequest
	if err := unmarshalRequest(kind, raw, &req); err != nil {
		return nil, err
	}
	req.Campaign = strings.TrimSpace(req.Campaign)
	if err := s.validateCampaign(req.Campaign); err != nil {
		return nil, err
	}
	return &req, nil
}

// parsePlanRequest decodes and normalizes a plan kind's request body,
// rejecting kinds outside the registry with unknownf.
func (s *Server) parsePlanRequest(kind string, raw json.RawMessage, unknownf string) (*plan.Request, error) {
	if _, ok := plan.Lookup(kind); !ok {
		return nil, badRequestf(unknownf, kind)
	}
	var body PlanRequest
	if err := unmarshalRequest(kind, raw, &body); err != nil {
		return nil, err
	}
	return s.planRequest(kind, body)
}

func unmarshalRequest(kind string, raw json.RawMessage, v any) error {
	if len(raw) == 0 {
		return nil
	}
	if err := json.Unmarshal(raw, v); err != nil {
		return badRequestf("bad %s request: %v", kind, err)
	}
	return nil
}

func (s *Server) handleJobList(w http.ResponseWriter, r *http.Request) {
	jobs := s.jobs.list()
	docs := make([]JobDoc, 0, len(jobs))
	for _, j := range jobs {
		docs = append(docs, s.jobs.doc(j, false))
	}
	writeJSON(w, http.StatusOK, map[string]any{"jobs": docs})
}

func (s *Server) handleJobGet(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.doc(j, true))
}

func (s *Server) handleJobCancel(w http.ResponseWriter, r *http.Request) {
	j, ok := s.jobs.get(r.PathValue("id"))
	if !ok {
		jsonError(w, http.StatusNotFound, "no such job")
		return
	}
	if !s.jobs.cancelJob(j) {
		jsonError(w, http.StatusConflict, "job already finished")
		return
	}
	writeJSON(w, http.StatusOK, s.jobs.doc(j, false))
}

// handleReport serves synchronous JSON renderings of the paper
// artifacts, through the same cache/singleflight as the pipeline
// endpoints.
func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	var kind string
	var reshape func([]byte) (any, error)
	switch name := r.PathValue("kind"); name {
	case "table1":
		writeJSON(w, http.StatusOK, report.Table1JSON())
		return
	case "table3":
		s.serveCached(w, r, KindConfirm, &ConfirmRequest{}, nil)
		return
	case "table4":
		kind = KindCharacterize
	case "mechanisms":
		kind = KindMechanisms
	case "figure1":
		kind = KindIdentify
	case "installations":
		kind, reshape = KindIdentify, installationsOnly
	default:
		jsonError(w, http.StatusNotFound, fmt.Sprintf("unknown report %q", name))
		return
	}
	req, err := s.planRequest(kind, PlanRequest{})
	if err != nil {
		jsonError(w, errorStatus(err), err.Error())
		return
	}
	s.serveCached(w, r, kind, req, reshape)
}

// installationsOnly reshapes a cached identify document into the
// installations report.
func installationsOnly(val []byte) (any, error) {
	var doc report.IdentifyDoc
	if err := json.Unmarshal(val, &doc); err != nil {
		return nil, err
	}
	return map[string]any{"installations": doc.Installations}, nil
}

// serveCached runs a default-parameter pipeline through the cache and
// optionally reshapes the cached document before responding.
func (s *Server) serveCached(w http.ResponseWriter, r *http.Request, kind string, req any, reshape func([]byte) (any, error)) {
	key := s.requestKey(kind, req)
	if val, ok := s.cache.get(key); ok {
		s.metrics.cacheHit()
		s.respondMaybeReshaped(w, r, val, reshape)
		return
	}
	val, err := s.cachedRun(r.Context(), kind, key, req)
	if err != nil {
		jsonError(w, errorStatus(err), err.Error())
		return
	}
	s.respondMaybeReshaped(w, r, val, reshape)
}

func (s *Server) respondMaybeReshaped(w http.ResponseWriter, r *http.Request, val []byte, reshape func([]byte) (any, error)) {
	if reshape == nil {
		writeRawJSON(w, http.StatusOK, s.maybeAttachStats(r, val))
		return
	}
	doc, err := reshape(val)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, doc)
}

// wantsStats reports the ?stats=1 opt-in: include the engine's current
// per-stage Stats snapshot in the response's optional "stats" field.
func wantsStats(r *http.Request) bool {
	switch r.URL.Query().Get("stats") {
	case "1", "true", "yes":
		return true
	}
	return false
}

// maybeAttachStats injects the engine Stats snapshot into a cached JSON
// document when the request opted in. The injection happens after the
// cache, so cached bytes stay stable and stats reflect serving time.
func (s *Server) maybeAttachStats(r *http.Request, val []byte) []byte {
	if !wantsStats(r) {
		return val
	}
	var doc map[string]any
	if err := json.Unmarshal(val, &doc); err != nil {
		return val
	}
	snap := s.metrics.engineStats.Snapshot()
	sort.Slice(snap.Stages, func(i, j int) bool { return snap.Stages[i].Stage < snap.Stages[j].Stage })
	doc["stats"] = snap
	b, err := json.Marshal(doc)
	if err != nil {
		return val
	}
	return b
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, map[string]any{
		"status":         "ok",
		"version":        version.String(),
		"uptime_seconds": s.opts.now().Sub(s.metrics.startedAt).Seconds(),
	})
}

func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	doc := s.metrics.snapshot(s.opts.now(), s.cache.len(), s.jobs.counts(), s.snaps.Count())
	if s.mon != nil {
		c := s.mon.Counters()
		doc.Monitor = &c
	}
	if s.clusterRt != nil {
		status := s.clusterRt.coord.Status()
		doc.Cluster = &ClusterMetricsDoc{
			Role:     s.clusterRt.role,
			Workers:  len(status.Workers),
			Counters: status.Counters,
		}
	}
	if s.follower != nil {
		c := s.follower.Counters()
		doc.Replica = &c
	}
	delivered, dropped := s.broker.Fanout()
	doc.Watch = WatchDoc{
		Subscribers: s.broker.Subscribers(),
		Delivered:   delivered,
		Dropped:     dropped,
		LastEventID: s.broker.LastID(),
	}
	writeJSON(w, http.StatusOK, doc)
}

// ---- plumbing ----

// decodeBody reads and unmarshals a JSON request body into v. An empty
// body leaves v at its zero value. On failure it writes the error
// response and returns false.
func (s *Server) decodeBody(w http.ResponseWriter, r *http.Request, v any) bool {
	body, err := io.ReadAll(r.Body)
	if err != nil {
		var maxErr *http.MaxBytesError
		if errors.As(err, &maxErr) {
			jsonError(w, http.StatusRequestEntityTooLarge,
				fmt.Sprintf("request body exceeds %d bytes", maxErr.Limit))
			return false
		}
		jsonError(w, http.StatusBadRequest, err.Error())
		return false
	}
	if len(body) == 0 {
		return true
	}
	if err := json.Unmarshal(body, v); err != nil {
		jsonError(w, http.StatusBadRequest, "bad JSON: "+err.Error())
		return false
	}
	return true
}

// statusError carries an HTTP status through the runner layers.
type statusError struct {
	code int
	msg  string
}

func (e *statusError) Error() string { return e.msg }

func badRequestf(format string, args ...any) error {
	return &statusError{code: http.StatusBadRequest, msg: fmt.Sprintf(format, args...)}
}

// errorStatus maps a runner error to its HTTP status.
func errorStatus(err error) int {
	var se *statusError
	if errors.As(err, &se) {
		return se.code
	}
	if errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded) {
		return http.StatusServiceUnavailable
	}
	return http.StatusInternalServerError
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	b, err := json.Marshal(v)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	writeRawJSON(w, status, b)
}

func writeRawJSON(w http.ResponseWriter, status int, b []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(b) //nolint:errcheck // best-effort response body
	if len(b) == 0 || b[len(b)-1] != '\n' {
		io.WriteString(w, "\n") //nolint:errcheck
	}
}

func jsonError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, map[string]string{"error": msg})
}
