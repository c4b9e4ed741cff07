// End-to-end cluster goldens: a coordinator fmserve with remote HTTP
// workers must produce byte-identical documents to a standalone server,
// survive a worker crashing mid-shard (lease expiry + reassignment),
// drain gracefully, and replicate its snapshot log to a follower store.
// `make cluster-golden` pins these under -race.
package filtermap_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"filtermap"

	"filtermap/internal/cluster"
	"filtermap/internal/world"
)

// startServer builds a server + httptest front end torn down with the
// test.
func startServer(t *testing.T, opts filtermap.ServeOptions) *httptest.Server {
	t.Helper()
	srv, err := filtermap.NewServer(opts)
	if err != nil {
		t.Fatalf("NewServer: %v", err)
	}
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			t.Errorf("Shutdown: %v", err)
		}
	})
	return ts
}

// startHTTPWorker runs a cluster worker against the coordinator URL and
// stops it with the test. token authenticates against a token-protected
// coordinator ("" = open).
func startHTTPWorker(t *testing.T, id, coordURL, token string) *filtermap.ClusterWorker {
	t.Helper()
	w := filtermap.NewClusterWorkerWithToken(id, coordURL, token)
	w.Poll = 10 * time.Millisecond
	w.HeartbeatEvery = 50 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan struct{})
	go func() {
		defer close(done)
		w.Run(ctx) //nolint:errcheck // exits on cancel
	}()
	t.Cleanup(func() {
		cancel()
		<-done
	})
	return w
}

// postBytes POSTs url and returns the response body, failing on non-200.
func postBytes(t *testing.T, url string) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", nil)
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST %s: status %d: %s", url, resp.StatusCode, body)
	}
	return body
}

// postAsync POSTs url off the test goroutine, delivering body or error
// on the returned channel.
type postResult struct {
	body []byte
	err  error
}

func postAsync(url string) <-chan postResult {
	ch := make(chan postResult, 1)
	go func() {
		resp, err := http.Post(url, "application/json", nil)
		if err != nil {
			ch <- postResult{err: err}
			return
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err == nil && resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("status %d: %s", resp.StatusCode, body)
		}
		ch <- postResult{body: body, err: err}
	}()
	return ch
}

func clusterStatus(t *testing.T, coordURL string) filtermap.ClusterStatus {
	t.Helper()
	resp, err := http.Get(coordURL + "/v1/cluster")
	if err != nil {
		t.Fatalf("GET /v1/cluster: %v", err)
	}
	defer resp.Body.Close()
	var doc filtermap.ClusterStatus
	if err := json.NewDecoder(resp.Body).Decode(&doc); err != nil {
		t.Fatalf("decode /v1/cluster: %v", err)
	}
	return doc
}

// TestGoldenClusterScanOut is the headline acceptance golden: identify,
// characterization, mechanisms and discovery documents produced by a
// coordinator with four remote HTTP workers are byte-identical to the
// standalone server's. The coordinator is token-protected, so the golden
// also covers the authenticated worker path end to end.
func TestGoldenClusterScanOut(t *testing.T) {
	plain := startServer(t, filtermap.ServeOptions{})
	coord := startServer(t, filtermap.ServeOptions{
		Cluster:      &filtermap.ClusterOptions{Role: filtermap.RoleCoordinator},
		ClusterToken: "golden-secret",
	})
	for i := 0; i < 4; i++ {
		startHTTPWorker(t, "golden-"+string(rune('a'+i)), coord.URL, "golden-secret")
	}

	for _, kind := range []string{"identify", "characterize", "mechanisms", "discover"} {
		path := "/v1/" + kind + "?wait=1"
		want := postBytes(t, plain.URL+path)
		got := postBytes(t, coord.URL+path)
		if string(got) != string(want) {
			t.Errorf("%s: 4-worker cluster document differs from single-process\ncluster: %.300s\nsingle:  %.300s", kind, got, want)
		}
	}

	st := clusterStatus(t, coord.URL)
	if !st.Enabled || len(st.Workers) != 4 {
		t.Fatalf("cluster status: enabled=%v workers=%d, want 4 on the ring", st.Enabled, len(st.Workers))
	}
	if st.Counters.JobsDone != 4 || st.Counters.ShardsDone == 0 {
		t.Fatalf("cluster counters after 4 jobs: %+v", st.Counters)
	}
}

// crashTransport wraps the HTTP transport and simulates a worker
// process dying right after it acquires its second lease: every later
// call — heartbeats and the result post included — errors, so the held
// lease can only come back via coordinator-side expiry.
type crashTransport struct {
	inner cluster.Transport

	mu     sync.Mutex
	leases int
	dead   bool
}

func (t *crashTransport) isDead() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dead
}

func (t *crashTransport) Lease(ctx context.Context, req cluster.LeaseRequest) (cluster.LeaseResponse, error) {
	if t.isDead() {
		return cluster.LeaseResponse{}, errors.New("worker crashed")
	}
	resp, err := t.inner.Lease(ctx, req)
	t.mu.Lock()
	if err == nil {
		t.leases += len(resp.Leases)
		if t.leases >= 2 {
			t.dead = true
		}
	}
	t.mu.Unlock()
	return resp, err
}

func (t *crashTransport) Result(ctx context.Context, req cluster.ResultRequest) (cluster.ResultResponse, error) {
	if t.isDead() {
		return cluster.ResultResponse{}, errors.New("worker crashed")
	}
	return t.inner.Result(ctx, req)
}

func (t *crashTransport) Heartbeat(ctx context.Context, req cluster.HeartbeatRequest) (cluster.HeartbeatResponse, error) {
	if t.isDead() {
		return cluster.HeartbeatResponse{}, errors.New("worker crashed")
	}
	return t.inner.Heartbeat(ctx, req)
}

func (t *crashTransport) Release(ctx context.Context, req cluster.ReleaseRequest) error {
	if t.isDead() {
		return errors.New("worker crashed")
	}
	return t.inner.Release(ctx, req)
}

// TestClusterWorkerCrashReassignment kills a worker after one delivered
// result while it holds a second lease. The coordinator must expire that
// lease and reassign the shard to a healthy worker, and the final
// document must still match the standalone answer byte for byte.
func TestClusterWorkerCrashReassignment(t *testing.T) {
	if len(world.MechanismRosterISPs()) < 2 {
		t.Skip("mechanism roster too small for a two-lease crash")
	}
	plain := startServer(t, filtermap.ServeOptions{})
	want := postBytes(t, plain.URL+"/v1/mechanisms?wait=1")

	coord := startServer(t, filtermap.ServeOptions{
		Cluster: &filtermap.ClusterOptions{Role: filtermap.RoleCoordinator, LeaseTTL: 250 * time.Millisecond},
	})

	crash := &crashTransport{inner: &cluster.HTTPTransport{BaseURL: coord.URL}}
	w1 := cluster.NewWorker("crasher", crash)
	w1.Poll = 10 * time.Millisecond
	w1.HeartbeatEvery = 50 * time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go w1.Run(ctx) //nolint:errcheck // exits on cancel

	got := postAsync(coord.URL + "/v1/mechanisms?wait=1")

	// Wait for the crash: w1 delivered shard one and died holding shard
	// two's lease.
	deadline := time.Now().Add(10 * time.Second)
	for !crash.isDead() {
		if time.Now().After(deadline) {
			t.Fatal("worker never reached its crash point")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// A healthy worker joins; the job must complete anyway.
	startHTTPWorker(t, "rescuer", coord.URL, "")

	select {
	case res := <-got:
		if res.err != nil {
			t.Fatalf("clustered mechanisms run failed: %v", res.err)
		}
		if string(res.body) != string(want) {
			t.Errorf("post-crash document differs from single-process\ncluster: %.300s\nsingle:  %.300s", res.body, want)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("clustered mechanisms run never completed after the crash")
	}

	st := clusterStatus(t, coord.URL)
	if st.Counters.LeasesExpired == 0 {
		t.Fatalf("crash did not exercise lease expiry: %+v", st.Counters)
	}
	if st.Counters.JobsDone != 1 {
		t.Fatalf("JobsDone = %d, want 1: %+v", st.Counters.JobsDone, st.Counters)
	}
}

// TestClusterWorkerDrain drains a worker after its first result: the
// worker must stop leasing and return from Run, and a replacement must
// finish the job.
func TestClusterWorkerDrain(t *testing.T) {
	if len(world.MechanismRosterISPs()) < 2 {
		t.Skip("mechanism roster too small to drain mid-job")
	}
	coord := startServer(t, filtermap.ServeOptions{
		Cluster: &filtermap.ClusterOptions{Role: filtermap.RoleCoordinator},
	})

	w1 := filtermap.NewClusterWorker("drainer", coord.URL)
	w1.Poll = 10 * time.Millisecond
	w1.OnResult = func(n int) {
		if n == 1 {
			w1.Drain()
		}
	}
	runDone := make(chan error, 1)
	go func() { runDone <- w1.Run(context.Background()) }()

	got := postAsync(coord.URL + "/v1/mechanisms?wait=1")

	select {
	case err := <-runDone:
		if err != nil {
			t.Fatalf("drained Run = %v, want nil", err)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("drained worker never returned from Run")
	}

	startHTTPWorker(t, "relief", coord.URL, "")
	select {
	case res := <-got:
		if res.err != nil {
			t.Fatalf("job failed after the drain: %v", res.err)
		}
		if !strings.Contains(string(res.body), "mechanisms") {
			t.Fatalf("unexpected mechanisms document: %.200s", res.body)
		}
	case <-time.After(60 * time.Second):
		t.Fatal("job never completed after the drain")
	}
}

// TestClusterReplication tails the coordinator's replication log into a
// fresh follower store and verifies the stores agree record for record.
func TestClusterReplication(t *testing.T) {
	coord := startServer(t, filtermap.ServeOptions{
		Cluster: &filtermap.ClusterOptions{Role: filtermap.RoleBoth, LocalWorkers: 2, WorkerPoll: 2 * time.Millisecond},
	})
	postBytes(t, coord.URL+"/v1/mechanisms?wait=1")
	postBytes(t, coord.URL+"/v1/discover?wait=1")

	replica, err := filtermap.OpenStore("")
	if err != nil {
		t.Fatalf("OpenStore: %v", err)
	}
	fol := &filtermap.ReplicaFollower{URL: coord.URL, Store: replica}
	applied, err := fol.Sync(context.Background())
	if err != nil {
		t.Fatalf("Sync: %v", err)
	}
	if applied < 2 {
		t.Fatalf("Sync applied %d records, want at least the two cluster appends", applied)
	}

	// The replica's log must be byte-for-byte the coordinator's.
	resp, err := http.Get(coord.URL + "/v1/cluster/log")
	if err != nil {
		t.Fatalf("GET /v1/cluster/log: %v", err)
	}
	defer resp.Body.Close()
	var logDoc cluster.LogResponse
	if err := json.NewDecoder(resp.Body).Decode(&logDoc); err != nil {
		t.Fatalf("decode log: %v", err)
	}
	local, err := replica.TailAfter(0, 0)
	if err != nil {
		t.Fatalf("replica TailAfter: %v", err)
	}
	if len(local) != len(logDoc.Records) {
		t.Fatalf("replica has %d records, coordinator %d", len(local), len(logDoc.Records))
	}
	for i := range local {
		if local[i].Meta.ID != logDoc.Records[i].Meta.ID || local[i].Meta.Seq != logDoc.Records[i].Meta.Seq {
			t.Fatalf("record %d diverged: replica %v vs coordinator %v", i, local[i].Meta, logDoc.Records[i].Meta)
		}
		if string(local[i].Body) != string(logDoc.Records[i].Body) {
			t.Fatalf("record %d body diverged", i)
		}
	}

	// Idempotent: a second sync has nothing to apply.
	if applied, err := fol.Sync(context.Background()); err != nil || applied != 0 {
		t.Fatalf("second Sync = (%d, %v), want (0, nil)", applied, err)
	}
	if c := fol.Counters(); c.LastSeq != logDoc.LastSeq || c.Errors != 0 {
		t.Fatalf("follower counters = %+v, want LastSeq %d and no errors", c, logDoc.LastSeq)
	}
}
