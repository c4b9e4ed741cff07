package server

import (
	"context"
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"filtermap/internal/cluster"
	"filtermap/internal/monitor"
	"filtermap/internal/plan"
	"filtermap/internal/store"
)

// This file is the cluster surface: the coordinator wiring that fans
// pipeline requests out to workers, the /v1/cluster/* lease-protocol
// endpoints workers and replicas speak, and the replication-log tail.
//
//	POST /v1/cluster/lease      worker pulls shard leases
//	POST /v1/cluster/result     worker delivers a fragment (or failure)
//	POST /v1/cluster/heartbeat  worker renews its leases
//	POST /v1/cluster/release    worker hands leases back (drain)
//	GET  /v1/cluster            ring/job/counter status
//	GET  /v1/cluster/log        replication-log tail (?after=N&limit=M)

// Cluster roles.
const (
	// RoleCoordinator shards requests to remote workers only.
	RoleCoordinator = "coordinator"
	// RoleBoth runs in-process workers alongside the coordinator, so a
	// single binary serves and executes (remote workers may still join).
	RoleBoth = "both"
)

// ClusterOptions enables coordinator-mode scan-out.
type ClusterOptions struct {
	// Role is RoleCoordinator or RoleBoth ("" = RoleBoth).
	Role string
	// LeaseTTL bounds how long a silent worker keeps a shard (0 = 10s).
	LeaseTTL time.Duration
	// MaxAttempts bounds failed executions per shard (0 = 3).
	MaxAttempts int
	// LocalWorkers sizes the in-process worker pool with RoleBoth
	// (0 = 1; ignored for RoleCoordinator).
	LocalWorkers int
	// WorkerPoll is the local workers' idle poll interval (0 = 100ms).
	WorkerPoll time.Duration
	// WorkerHeartbeat is the local workers' lease-renewal interval
	// (0 = LeaseTTL/4, floored at 10ms).
	WorkerHeartbeat time.Duration
}

// clusterRuntime holds the server's cluster state: the coordinator,
// the optional in-process workers, and their lifecycle.
type clusterRuntime struct {
	role    string
	coord   *cluster.Coordinator
	workers []*cluster.Worker
	cancel  context.CancelFunc
	wg      sync.WaitGroup
}

// startCluster wires the coordinator (and, for RoleBoth, local workers
// sharing the server's runner) into the server. Completed cluster runs
// append to the snapshot store through recordClusterDoc — the
// single-writer replication log.
func (s *Server) startCluster(opts ClusterOptions) {
	role := opts.Role
	if role == "" {
		role = RoleBoth
	}
	leaseTTL := opts.LeaseTTL
	if leaseTTL <= 0 {
		leaseTTL = 10 * time.Second
	}
	rt := &clusterRuntime{role: role}
	rt.coord = cluster.NewCoordinator(cluster.Options{
		LeaseTTL:    leaseTTL,
		MaxAttempts: opts.MaxAttempts,
		OnComplete:  s.recordClusterDoc,
		Now:         s.opts.now,
	})

	if role == RoleBoth {
		n := opts.LocalWorkers
		if n <= 0 {
			n = 1
		}
		hb := opts.WorkerHeartbeat
		if hb <= 0 {
			hb = leaseTTL / 4
			if hb < 10*time.Millisecond {
				hb = 10 * time.Millisecond
			}
		}
		ctx, cancel := context.WithCancel(context.Background())
		rt.cancel = cancel
		for i := 0; i < n; i++ {
			w := cluster.NewWorkerWithRunner(fmt.Sprintf("local-%d", i), cluster.LocalTransport{Coord: rt.coord}, s.runner)
			w.Poll = opts.WorkerPoll
			w.HeartbeatEvery = hb
			rt.workers = append(rt.workers, w)
			rt.wg.Add(1)
			go func() {
				defer rt.wg.Done()
				w.Run(ctx) //nolint:errcheck // exits on cancel
			}()
		}
	}
	s.clusterRt = rt
}

// stopCluster drains the local workers and waits for them.
func (rt *clusterRuntime) stop() {
	if rt == nil {
		return
	}
	for _, w := range rt.workers {
		w.Drain()
	}
	if rt.cancel != nil {
		rt.cancel()
	}
	rt.wg.Wait()
}

// recordClusterDoc is the coordinator's OnComplete hook: it appends the
// merged document to the snapshot store (the replication log replicas
// tail) and publishes a watch event. The store dedupes identical
// consecutive content per (kind, config), so repeated runs of an
// unchanged world cost one record.
func (s *Server) recordClusterDoc(req plan.Request, doc any) {
	p, ok := plan.Lookup(req.Kind)
	if !ok {
		s.metrics.clusterAppendError()
		return
	}
	body, err := json.Marshal(doc)
	if err != nil {
		s.metrics.clusterAppendError()
		return
	}
	meta, err := s.snaps.Append(store.Snapshot{
		Kind:   p.StoreKind,
		At:     s.base.Clock.Now(),
		Config: store.ConfigHash(req.World),
		Note:   "cluster",
		Body:   body,
	})
	if err != nil {
		// The client already received the merged document, but the
		// record never reached the replication log: followers and
		// /v1/snapshots are now behind reality. Count it so operators
		// can see the log diverging.
		s.metrics.clusterAppendError()
		return
	}
	s.metrics.snapshotRecorded(meta.Deduped)
	if !meta.Deduped {
		s.broker.Publish(monitor.Event{
			At: meta.At, Type: monitor.EventSnapshot,
			Plan: "cluster", Kind: meta.Kind,
			Seq: meta.Seq, SnapshotID: meta.ID,
			Note: meta.Note,
		})
	}
}

// clusterPath reports whether an URL path belongs to the worker/replica
// protocol, which the rate limiter must not throttle for authenticated
// workers: a starved heartbeat would expire leases and churn shards
// under client load.
func clusterPath(path string) bool {
	switch path {
	case "/v1/cluster/lease", "/v1/cluster/result", "/v1/cluster/heartbeat",
		"/v1/cluster/release", "/v1/cluster/log":
		return true
	}
	return false
}

// clusterAuthorized reports whether the request may speak the worker/
// replica protocol: the configured cluster token matches (constant-time
// compare), or no token is configured and the protocol is open.
func (s *Server) clusterAuthorized(r *http.Request) bool {
	token := s.opts.ClusterToken
	if token == "" {
		return true
	}
	got := r.Header.Get(cluster.TokenHeader)
	return subtle.ConstantTimeCompare([]byte(got), []byte(token)) == 1
}

// clusterAuth gates a protocol handler, writing 401 when the request
// lacks the configured cluster token. Without a token the leases,
// fragments, and replication log would be open to any client the rate
// limiter lets through: forged fragments would merge into served
// documents and replicate to followers.
func (s *Server) clusterAuth(w http.ResponseWriter, r *http.Request) bool {
	if s.clusterAuthorized(r) {
		return true
	}
	jsonError(w, http.StatusUnauthorized, "cluster token required (send "+cluster.TokenHeader+")")
	return false
}

// ---- handlers ----

// clusterCoord returns the coordinator, or nil with a 409 written when
// the server is not running one.
func (s *Server) clusterCoord(w http.ResponseWriter) *cluster.Coordinator {
	if s.clusterRt == nil {
		jsonError(w, http.StatusConflict, "cluster mode is not enabled (start fmserve with -role coordinator|both)")
		return nil
	}
	return s.clusterRt.coord
}

func (s *Server) handleClusterLease(w http.ResponseWriter, r *http.Request) {
	if !s.clusterAuth(w, r) {
		return
	}
	coord := s.clusterCoord(w)
	if coord == nil {
		return
	}
	var req cluster.LeaseRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		jsonError(w, http.StatusBadRequest, "worker id required")
		return
	}
	writeJSON(w, http.StatusOK, cluster.LeaseResponse{Leases: coord.Lease(req.Worker, req.Max)})
}

func (s *Server) handleClusterResult(w http.ResponseWriter, r *http.Request) {
	if !s.clusterAuth(w, r) {
		return
	}
	coord := s.clusterCoord(w)
	if coord == nil {
		return
	}
	var req cluster.ResultRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		jsonError(w, http.StatusBadRequest, "worker id required")
		return
	}
	if req.Fragment == nil && req.Error == "" {
		jsonError(w, http.StatusBadRequest, "result carries neither fragment nor error")
		return
	}
	writeJSON(w, http.StatusOK, coord.Result(req.Worker, req.Ref, req.Fragment, req.Error))
}

func (s *Server) handleClusterHeartbeat(w http.ResponseWriter, r *http.Request) {
	if !s.clusterAuth(w, r) {
		return
	}
	coord := s.clusterCoord(w)
	if coord == nil {
		return
	}
	var req cluster.HeartbeatRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	if req.Worker == "" {
		jsonError(w, http.StatusBadRequest, "worker id required")
		return
	}
	writeJSON(w, http.StatusOK, cluster.HeartbeatResponse{Valid: coord.Heartbeat(req.Worker, req.Refs)})
}

func (s *Server) handleClusterRelease(w http.ResponseWriter, r *http.Request) {
	if !s.clusterAuth(w, r) {
		return
	}
	coord := s.clusterCoord(w)
	if coord == nil {
		return
	}
	var req cluster.ReleaseRequest
	if !s.decodeBody(w, r, &req) {
		return
	}
	coord.Release(req.Worker, req.Refs)
	writeJSON(w, http.StatusOK, map[string]bool{"released": true})
}

func (s *Server) handleClusterStatus(w http.ResponseWriter, r *http.Request) {
	if s.clusterRt == nil {
		writeJSON(w, http.StatusOK, cluster.StatusDoc{Enabled: false})
		return
	}
	doc := s.clusterRt.coord.Status()
	doc.Role = s.clusterRt.role
	writeJSON(w, http.StatusOK, doc)
}

// handleClusterLog serves the replication-log tail. It works regardless
// of cluster role — the log is just the snapshot store in sequence
// order — so any fmserve can be a replication source.
func (s *Server) handleClusterLog(w http.ResponseWriter, r *http.Request) {
	if !s.clusterAuth(w, r) {
		return
	}
	after, err := parseUintParam(r, "after")
	if err != nil {
		jsonError(w, http.StatusBadRequest, err.Error())
		return
	}
	limit := 256
	if v := r.URL.Query().Get("limit"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n < 1 {
			jsonError(w, http.StatusBadRequest, "limit must be a positive integer")
			return
		}
		if n < limit {
			limit = n
		}
	}
	recs, err := s.snaps.TailAfter(after, limit)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := cluster.LogResponse{Records: make([]cluster.LogRecord, 0, len(recs)), LastSeq: s.snaps.LastSeq()}
	for _, rec := range recs {
		resp.Records = append(resp.Records, cluster.LogRecord{Meta: rec.Meta, Body: rec.Body})
	}
	writeJSON(w, http.StatusOK, resp)
}

func parseUintParam(r *http.Request, name string) (uint64, error) {
	v := r.URL.Query().Get(name)
	if v == "" {
		return 0, nil
	}
	n, err := strconv.ParseUint(v, 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s must be a non-negative integer", name)
	}
	return n, nil
}
