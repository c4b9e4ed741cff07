package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/plan"
)

// Transport is the worker's view of the coordinator: the four verbs of
// the lease protocol. LocalTransport binds them in-process (fmserve
// -role both); HTTPTransport speaks the /v1/cluster wire protocol.
type Transport interface {
	Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error)
	Result(ctx context.Context, req ResultRequest) (ResultResponse, error)
	Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error)
	Release(ctx context.Context, req ReleaseRequest) error
}

// LocalTransport runs the protocol as direct method calls on an
// in-process coordinator.
type LocalTransport struct {
	Coord *Coordinator
}

func (t LocalTransport) Lease(_ context.Context, req LeaseRequest) (LeaseResponse, error) {
	return LeaseResponse{Leases: t.Coord.Lease(req.Worker, req.Max)}, nil
}

func (t LocalTransport) Result(_ context.Context, req ResultRequest) (ResultResponse, error) {
	return t.Coord.Result(req.Worker, req.Ref, req.Fragment, req.Error), nil
}

func (t LocalTransport) Heartbeat(_ context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	return HeartbeatResponse{Valid: t.Coord.Heartbeat(req.Worker, req.Refs)}, nil
}

func (t LocalTransport) Release(_ context.Context, req ReleaseRequest) error {
	t.Coord.Release(req.Worker, req.Refs)
	return nil
}

// HTTPTransport speaks the /v1/cluster/{lease,result,heartbeat,release}
// protocol against a coordinator base URL.
type HTTPTransport struct {
	// BaseURL is the coordinator root, e.g. "http://host:8080".
	BaseURL string
	// Token is the shared cluster secret sent as the TokenHeader on
	// every call. Required when the coordinator was started with a
	// cluster token; empty otherwise.
	Token string
	// Client is the HTTP client (nil = a dedicated client with a 30s
	// timeout).
	Client *http.Client
}

// TokenHeader carries the shared cluster secret on every worker and
// replica request to a token-protected coordinator.
const TokenHeader = "X-Cluster-Token"

func (t *HTTPTransport) client() *http.Client {
	if t.Client != nil {
		return t.Client
	}
	return &http.Client{Timeout: 30 * time.Second}
}

func (t *HTTPTransport) post(ctx context.Context, path string, in, out any) error {
	body, err := json.Marshal(in)
	if err != nil {
		return fmt.Errorf("cluster: marshal %s: %w", path, err)
	}
	url := strings.TrimSuffix(t.BaseURL, "/") + path
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	if t.Token != "" {
		req.Header.Set(TokenHeader, t.Token)
	}
	resp, err := t.client().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("cluster: %s: %s: %s", path, resp.Status, strings.TrimSpace(string(data)))
	}
	if out == nil {
		return nil
	}
	if err := json.Unmarshal(data, out); err != nil {
		return fmt.Errorf("cluster: decode %s response: %w", path, err)
	}
	return nil
}

func (t *HTTPTransport) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	var resp LeaseResponse
	err := t.post(ctx, "/v1/cluster/lease", req, &resp)
	return resp, err
}

func (t *HTTPTransport) Result(ctx context.Context, req ResultRequest) (ResultResponse, error) {
	var resp ResultResponse
	err := t.post(ctx, "/v1/cluster/result", req, &resp)
	return resp, err
}

func (t *HTTPTransport) Heartbeat(ctx context.Context, req HeartbeatRequest) (HeartbeatResponse, error) {
	var resp HeartbeatResponse
	err := t.post(ctx, "/v1/cluster/heartbeat", req, &resp)
	return resp, err
}

func (t *HTTPTransport) Release(ctx context.Context, req ReleaseRequest) error {
	return t.post(ctx, "/v1/cluster/release", req, nil)
}

// Worker is the pull-based runtime: it polls the coordinator for a
// lease, executes the shard on its plan.Runner, posts the fragment, and
// repeats. A heartbeat goroutine renews the lease while a shard runs; a
// heartbeat that comes back invalid cancels the shard (the lease expired
// and someone else owns it now).
type Worker struct {
	// ID names the worker on the ring. Must be unique per cluster.
	ID string
	// Transport reaches the coordinator.
	Transport Transport
	// Poll is the idle re-poll interval when no work is pending (0 =
	// 100ms).
	Poll time.Duration
	// HeartbeatEvery is the lease-renewal interval; keep it well under
	// the coordinator's LeaseTTL (0 = 2s).
	HeartbeatEvery time.Duration

	// OnResult, when set, observes every successful result post with a
	// running count — test instrumentation for crash/drain scenarios.
	OnResult func(n int)

	runner    *plan.Runner
	ownRunner bool // close the runner when Run returns
	draining  atomic.Bool
	posted    atomic.Uint64
}

// NewWorker builds a worker with its own runner, closed when Run
// returns. Engine options tune the worker's worlds.
func NewWorker(id string, transport Transport, engOpts ...engine.Option) *Worker {
	w := NewWorkerWithRunner(id, transport, plan.NewRunner(engOpts...))
	w.ownRunner = true
	return w
}

// NewWorkerWithRunner builds a worker executing shards on a
// caller-owned runner: fmserve's in-process workers share the server's
// runner, and with it the server's base world as the identify replica.
func NewWorkerWithRunner(id string, transport Transport, runner *plan.Runner) *Worker {
	return &Worker{ID: id, Transport: transport, runner: runner}
}

// Drain makes Run finish (or relinquish) current leases and return
// instead of polling for more work. Safe to call from any goroutine;
// idempotent.
func (w *Worker) Drain() { w.draining.Store(true) }

// Run is the worker loop. It returns when ctx ends or Drain is called;
// on the way out it releases any lease it did not complete, so the
// coordinator reassigns without waiting for expiry. A runner the worker
// built itself is closed on return.
func (w *Worker) Run(ctx context.Context) error {
	poll := w.Poll
	if poll <= 0 {
		poll = 100 * time.Millisecond
	}
	if w.ownRunner {
		defer w.runner.Close()
	}

	for {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if w.draining.Load() {
			return nil
		}
		resp, err := w.Transport.Lease(ctx, LeaseRequest{Worker: w.ID, Max: 1})
		if err != nil {
			if ctx.Err() != nil {
				return ctx.Err()
			}
			// Coordinator unreachable: back off one poll and retry.
			if !sleepCtx(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		if len(resp.Leases) == 0 {
			if !sleepCtx(ctx, poll) {
				return ctx.Err()
			}
			continue
		}
		for _, lease := range resp.Leases {
			if ctx.Err() != nil {
				w.release(lease.Ref)
				return ctx.Err()
			}
			if w.draining.Load() {
				// Drain arrived between lease and execution: hand the
				// shard back untouched.
				w.release(lease.Ref)
				return nil
			}
			w.execute(ctx, lease)
		}
	}
}

// execute runs one leased shard with heartbeat renewal and posts the
// outcome. Draining does not abandon a started shard — finishing it is
// the graceful part of graceful drain; the release path covers shards
// not yet started.
func (w *Worker) execute(ctx context.Context, lease ShardLease) {
	shardCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	hb := w.HeartbeatEvery
	if hb <= 0 {
		hb = 2 * time.Second
	}
	// leaseLost distinguishes "the heartbeat learned the lease was
	// reassigned" from every other way shardCtx can end: by the time
	// RunShard returns, execute has always called cancel(), so
	// shardCtx.Err() alone cannot tell a revoked lease from a genuine
	// shard failure.
	var leaseLost atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		ticker := time.NewTicker(hb)
		defer ticker.Stop()
		for {
			select {
			case <-shardCtx.Done():
				return
			case <-ticker.C:
			}
			resp, err := w.Transport.Heartbeat(shardCtx, HeartbeatRequest{Worker: w.ID, Refs: []LeaseRef{lease.Ref}})
			if err != nil {
				continue // transient; the lease survives until TTL
			}
			if len(resp.Valid) == 1 && !resp.Valid[0] {
				// Lease lost: the shard is someone else's now. Stop
				// burning cycles on it.
				leaseLost.Store(true)
				cancel()
				return
			}
		}
	}()

	frag, err := w.runner.RunShard(shardCtx, lease.Spec)
	cancel()
	wg.Wait()

	if err != nil {
		if leaseLost.Load() {
			// The heartbeat canceled us because the lease was
			// reassigned; posting a failure would be noise. Walk away.
			return
		}
		if ctx.Err() != nil {
			// Our own shutdown cut the shard off: hand the lease back so
			// the coordinator requeues immediately without charging the
			// shard's failure budget.
			w.release(lease.Ref)
			return
		}
		// A genuine shard failure under a live lease: post it so the
		// coordinator counts the attempt (and can fail the job at
		// MaxAttempts instead of re-leasing a doomed shard forever).
	}
	res := ResultRequest{Worker: w.ID, Ref: lease.Ref, Fragment: frag}
	if err != nil {
		res.Fragment = nil
		res.Error = err.Error()
	}
	if _, perr := w.Transport.Result(ctx, res); perr == nil && err == nil {
		n := w.posted.Add(1)
		if w.OnResult != nil {
			w.OnResult(int(n))
		}
	}
	// A failed post is the crash case: the lease expires and the shard
	// is reassigned — deliberately no retry loop here.
}

// release hands an unstarted lease back to the coordinator (best
// effort; expiry covers a failed release).
func (w *Worker) release(ref LeaseRef) {
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	w.Transport.Release(ctx, ReleaseRequest{Worker: w.ID, Refs: []LeaseRef{ref}}) //nolint:errcheck
}

// sleepCtx sleeps d or until ctx ends; reports whether the sleep
// completed.
func sleepCtx(ctx context.Context, d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}
