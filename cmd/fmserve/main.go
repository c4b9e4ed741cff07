// Command fmserve runs the filtermap pipelines as a long-lived HTTP
// service: POST /v1/identify, /v1/confirm and /v1/characterize answer
// from a TTL result cache when possible and enqueue background jobs
// otherwise; GET /v1/reports/{kind} serves the paper's tables as JSON;
// GET /metrics exposes request, cache, job and engine-stage counters.
//
// Usage:
//
//	fmserve [-addr :8080] [-workers N] [-job-workers N]
//	        [-cache-ttl 5m] [-cache-entries 256]
//	        [-rate 0] [-burst 8] [-max-body 1048576] [-store DIR]
//	        [-monitor] [-monitor-seed N] [-monitor-tick 24h] [-watch-retain N]
//	        [-role coordinator|both] [-cluster-workers N] [-lease-ttl 10s]
//	        [-cluster-token SECRET]
//	        [-follow URL] [-follow-interval 2s]
//
// With -store, snapshot endpoints persist to the same append-only log
// cmd/fmhist reads: POST /v1/snapshots records a pipeline result,
// GET /v1/snapshots lists, GET /v1/diff?from=&to= computes churn.
// Without it the store is memory-backed and dies with the process.
//
// -monitor enables the continuous-measurement scheduler: POST
// /v1/monitor/tick advances it, appending incremental snapshots and
// streaming longitudinal diff events on GET /v1/watch (SSE with
// Last-Event-ID resume; ?poll=1 long-poll fallback). /v1/watch serves
// even without -monitor, carrying API snapshot-append events.
//
// Quick start:
//
//	fmserve -addr :8080 &
//	curl -s localhost:8080/healthz
//	curl -s -XPOST localhost:8080/v1/identify?wait=1 | head
//	curl -s localhost:8080/metrics | head
//
// -role enables distributed scan-out. "coordinator" shards identify,
// characterize, discovery and mechanism requests across workers joining
// over POST /v1/cluster/lease (run them with cmd/fmworker); "both"
// additionally runs -cluster-workers in-process workers so one binary
// serves and executes. A clustered run, like a standalone one, records
// nothing: the snapshot store holds what POST /v1/snapshots and the
// monitor recorded. -follow makes this server a read-only replica
// tailing another server's store (GET /v1/cluster/log) into its own;
// it answers POST /v1/snapshots with 409 and cannot take -monitor.
//
// The server shuts down gracefully on SIGINT/SIGTERM: the listener
// stops, queued and running jobs drain (bounded by -drain), and the
// world closes.
package main

import (
	"context"
	"errors"
	"flag"
	"log"
	"net/http"
	"os/signal"
	"syscall"
	"time"

	"filtermap"

	"filtermap/internal/version"
)

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 0, "engine worker-pool size (0 = engine default)")
	jobWorkers := flag.Int("job-workers", 2, "background job workers")
	cacheTTL := flag.Duration("cache-ttl", 5*time.Minute, "result cache TTL (negative disables caching)")
	cacheEntries := flag.Int("cache-entries", 256, "result cache max entries")
	rate := flag.Float64("rate", 0, "per-client requests per second (0 disables rate limiting)")
	burst := flag.Int("burst", 8, "per-client burst size")
	maxBody := flag.Int64("max-body", 1<<20, "max request body bytes")
	storeDir := flag.String("store", "", "snapshot store directory (empty = in-memory, not persisted)")
	monitorOn := flag.Bool("monitor", false, "enable the continuous-measurement scheduler (POST /v1/monitor/tick)")
	monitorSeed := flag.Uint64("monitor-seed", 0, "monitor churn/jitter seed (with -monitor)")
	monitorTick := flag.Duration("monitor-tick", 0, "virtual duration of one monitor tick (with -monitor; 0 = 24h)")
	watchRetain := flag.Int("watch-retain", 0, "events retained for /v1/watch replay (0 = default)")
	role := flag.String("role", "", "cluster role: coordinator or both (empty = standalone, no cluster; run workers with fmworker)")
	clusterWorkers := flag.Int("cluster-workers", 1, "in-process workers (with -role both)")
	leaseTTL := flag.Duration("lease-ttl", 10*time.Second, "shard lease TTL before reassignment (with -role coordinator|both)")
	clusterToken := flag.String("cluster-token", "", "shared secret protecting /v1/cluster/*; workers and followers must send it (empty = open)")
	follow := flag.String("follow", "", "replicate: tail this coordinator's /v1/cluster/log into the local store")
	followInterval := flag.Duration("follow-interval", 0, "replication poll interval (with -follow; 0 = 2s)")
	scale := flag.String("scale", "", "world scale profile: small (default), city, nation — city/nation add a synthetic population answered from seeded derivations; part of cache keys and snapshot config hashes")
	drain := flag.Duration("drain", 30*time.Second, "graceful shutdown drain budget")
	checkVersion := version.Flag(flag.CommandLine, "fmserve")
	flag.Parse()
	checkVersion()

	var engOpts []filtermap.Option
	if *workers > 0 {
		engOpts = append(engOpts, filtermap.WithWorkers(*workers))
	}
	opts := filtermap.ServeOptions{
		World:           filtermap.Options{Scale: *scale},
		CacheTTL:        *cacheTTL,
		CacheEntries:    *cacheEntries,
		JobWorkers:      *jobWorkers,
		RatePerSec:      *rate,
		RateBurst:       *burst,
		MaxRequestBytes: *maxBody,
		StoreDir:        *storeDir,
		WatchRetain:     *watchRetain,
		ClusterToken:    *clusterToken,
	}
	if *monitorOn {
		opts.Monitor = &filtermap.MonitorOptions{Seed: *monitorSeed, Tick: *monitorTick}
	}
	switch *role {
	case "":
	case filtermap.RoleCoordinator, filtermap.RoleBoth:
		opts.Cluster = &filtermap.ClusterOptions{
			Role:         *role,
			LeaseTTL:     *leaseTTL,
			LocalWorkers: *clusterWorkers,
		}
	default:
		log.Fatalf("fmserve: unknown -role %q (want coordinator or both; run workers with fmworker)", *role)
	}
	if *follow != "" {
		opts.Follow = *follow
		opts.FollowInterval = *followInterval
	}
	srv, err := filtermap.NewServer(opts, engOpts...)
	if err != nil {
		log.Fatal(err)
	}

	httpSrv := &http.Server{Addr: *addr, Handler: srv}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errc := make(chan error, 1)
	go func() { errc <- httpSrv.ListenAndServe() }()
	log.Printf("fmserve listening on %s", *addr)

	select {
	case err := <-errc:
		log.Fatal(err)
	case <-ctx.Done():
	}

	log.Printf("fmserve draining (budget %s)", *drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), *drain)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil {
		log.Printf("fmserve: http shutdown: %v", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		log.Printf("fmserve: job drain: %v", err)
	}
	log.Print("fmserve stopped")
}
