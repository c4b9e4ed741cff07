package server

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"filtermap/internal/cluster"
	"filtermap/internal/monitor"
	"filtermap/internal/store"
	"filtermap/internal/world"
)

// clusterTestOptions enables coordinator+local-worker mode tuned for
// test latency.
func clusterTestOptions(workers int) Options {
	return Options{Cluster: &ClusterOptions{
		Role:         RoleBoth,
		LocalWorkers: workers,
		WorkerPoll:   2 * time.Millisecond,
	}}
}

// postBody posts to url and returns the raw response body.
func postBody(t *testing.T, url string) []byte {
	t.Helper()
	resp := doJSON(t, http.MethodPost, url, nil, nil)
	wantStatus(t, resp, http.StatusOK)
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("read %s: %v", url, err)
	}
	return b
}

// TestClusterDisabled checks the protocol surface without cluster mode:
// worker endpoints 409, the status doc reports disabled, and the
// replication log still serves (any fmserve can be a log source).
func TestClusterDisabled(t *testing.T) {
	_, ts := newTestServer(t, Options{})

	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/lease", cluster.LeaseRequest{Worker: "w"}, nil)
	wantStatus(t, resp, http.StatusConflict)

	var status cluster.StatusDoc
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster", nil, &status)
	wantStatus(t, resp, http.StatusOK)
	if status.Enabled {
		t.Fatal("status.Enabled = true on a standalone server")
	}

	var logResp cluster.LogResponse
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/log", nil, &logResp)
	wantStatus(t, resp, http.StatusOK)
}

// TestClusterByteIdentity is the core determinism contract: every
// shardable kind served by a coordinator+workers cluster must be
// byte-identical to the standalone single-process answer — on the
// default world and on a base world with non-default options, where a
// zero request overlay must mean the base options on both paths.
func TestClusterByteIdentity(t *testing.T) {
	for _, base := range []world.Options{{}, {HideConsoles: true}} {
		plainOpts, clusterOpts := Options{World: base}, clusterTestOptions(2)
		clusterOpts.World = base
		_, plain := newTestServer(t, plainOpts)
		_, clustered := newTestServer(t, clusterOpts)

		for _, kind := range []string{"identify", "mechanisms", "discover", "characterize"} {
			path := "/v1/" + kind + "?wait=1"
			want := postBody(t, plain.URL+path)
			got := postBody(t, clustered.URL+path)
			if string(got) != string(want) {
				t.Errorf("base %+v, %s: clustered body differs from single-process\nclustered: %.300s\nsingle:    %.300s", base, kind, got, want)
			}
		}
	}
}

// TestClusterStatusMetricsAndLog exercises the observability surface
// after real clustered runs: /v1/cluster counters, the /metrics cluster
// section, and the replication-log tail, which holds what was recorded.
func TestClusterStatusMetricsAndLog(t *testing.T) {
	_, ts := newTestServer(t, clusterTestOptions(2))

	postBody(t, ts.URL+"/v1/mechanisms?wait=1")
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/snapshots",
		snapshotRecordRequest{Kind: KindIdentify, Note: "api"}, nil)
	wantStatus(t, resp, http.StatusCreated)

	var status cluster.StatusDoc
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster", nil, &status)
	wantStatus(t, resp, http.StatusOK)
	if !status.Enabled || status.Role != RoleBoth {
		t.Fatalf("status = %+v, want enabled role=both", status)
	}
	if len(status.Workers) == 0 {
		t.Fatal("status lists no workers after a clustered run")
	}
	if status.Counters.JobsDone == 0 || status.Counters.ShardsDone == 0 || status.Counters.LeasesGranted == 0 {
		t.Fatalf("counters untouched after a clustered run: %+v", status.Counters)
	}

	var metrics MetricsDoc
	resp = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics)
	wantStatus(t, resp, http.StatusOK)
	if metrics.Cluster == nil {
		t.Fatal("/metrics omits the cluster section in cluster mode")
	}
	if metrics.Cluster.Role != RoleBoth || metrics.Cluster.Counters.ShardsDone == 0 {
		t.Fatalf("/metrics cluster section = %+v", metrics.Cluster)
	}

	// The log is the store: the recorded snapshot, and not the served
	// mechanisms document.
	var logResp cluster.LogResponse
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/log", nil, &logResp)
	wantStatus(t, resp, http.StatusOK)
	if len(logResp.Records) != 1 || logResp.LastSeq != 1 {
		t.Fatalf("replication log = %d records up to seq %d, want the one recorded snapshot", len(logResp.Records), logResp.LastSeq)
	}
	if m := logResp.Records[0].Meta; m.Kind != KindIdentify || m.Note != "api" {
		t.Fatalf("log record = %s noted %q, want identify noted api", m.Kind, m.Note)
	}

	// Tailing from the end returns nothing new.
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/log?after="+
		strconv.FormatUint(logResp.LastSeq, 10), nil, &logResp)
	wantStatus(t, resp, http.StatusOK)
	if len(logResp.Records) != 0 {
		t.Fatalf("tail past LastSeq returned %d records", len(logResp.Records))
	}
}

// TestClusterFirstSnapshotKeepsNote: on a fresh clustered server the
// first recorded snapshot is the caller's, with the caller's note, as on
// a standalone server.
func TestClusterFirstSnapshotKeepsNote(t *testing.T) {
	_, ts := newTestServer(t, clusterTestOptions(1))
	var meta store.Meta
	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/snapshots",
		snapshotRecordRequest{Kind: KindMechanisms, Note: "my-note"}, &meta)
	wantStatus(t, resp, http.StatusCreated)
	if meta.Seq != 1 || meta.Note != "my-note" || meta.Deduped {
		t.Fatalf("first snapshot = seq %d noted %q (deduped %v), want seq 1 noted my-note", meta.Seq, meta.Note, meta.Deduped)
	}
}

// TestServingRecordsNothing: a served run, standalone or clustered,
// returns its document and writes nothing to the snapshot store, a
// product subset included.
func TestServingRecordsNothing(t *testing.T) {
	for name, opts := range map[string]Options{"standalone": {}, "cluster": clusterTestOptions(1)} {
		_, ts := newTestServer(t, opts)
		postBody(t, ts.URL+"/v1/identify?wait=1")
		resp := doJSON(t, http.MethodPost, ts.URL+"/v1/identify?wait=1", PlanRequest{Products: []string{"Netsweeper"}}, nil)
		wantStatus(t, resp, http.StatusOK)

		var list struct {
			Snapshots []store.Meta `json:"snapshots"`
		}
		resp = doJSON(t, http.MethodGet, ts.URL+"/v1/snapshots", nil, &list)
		wantStatus(t, resp, http.StatusOK)
		var metrics MetricsDoc
		resp = doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics)
		wantStatus(t, resp, http.StatusOK)
		if len(list.Snapshots) != 0 || metrics.Snapshots.Stored != 0 || metrics.Snapshots.Recorded != 0 {
			t.Errorf("%s: two served identifies left %d snapshots (metrics %+v), want none", name, len(list.Snapshots), metrics.Snapshots)
		}
	}
}

// TestAlternatingSubsetsHitCache: six identify requests alternating two
// product subsets run the pipeline once per subset and answer the other
// four from the cache, on a clustered server as on a standalone one.
func TestAlternatingSubsetsHitCache(t *testing.T) {
	for name, opts := range map[string]Options{"standalone": {}, "cluster": clusterTestOptions(1)} {
		_, ts := newTestServer(t, opts)
		for i := 0; i < 6; i++ {
			products := []string{"Netsweeper"}
			if i%2 == 1 {
				products = []string{"Websense"}
			}
			resp := doJSON(t, http.MethodPost, ts.URL+"/v1/identify?wait=1", PlanRequest{Products: products}, nil)
			wantStatus(t, resp, http.StatusOK)
		}
		var metrics MetricsDoc
		resp := doJSON(t, http.MethodGet, ts.URL+"/metrics", nil, &metrics)
		wantStatus(t, resp, http.StatusOK)
		if c := metrics.Cache; c.Hits != 4 || c.Misses != 2 || metrics.Runs[KindIdentify] != 2 {
			t.Errorf("%s: cache %+v and %d identify runs, want 4 hits, 2 misses and 2 runs", name, c, metrics.Runs[KindIdentify])
		}
	}
}

// TestFollowerIsReadOnly: a following server's store holds only its
// leader's log. POST /v1/snapshots answers 409 naming the leader, the
// leader's records arrive with the leader's sequence numbers and IDs,
// and New refuses a monitor, whose ticks would write the same store.
func TestFollowerIsReadOnly(t *testing.T) {
	_, leader := newTestServer(t, Options{})
	_, follower := newTestServer(t, Options{Follow: leader.URL, FollowInterval: 5 * time.Millisecond})

	var refusal struct {
		Error string `json:"error"`
	}
	resp := doJSON(t, http.MethodPost, follower.URL+"/v1/snapshots", snapshotRecordRequest{Kind: KindMechanisms}, &refusal)
	wantStatus(t, resp, http.StatusConflict)
	if !strings.Contains(refusal.Error, leader.URL) {
		t.Fatalf("refusal %q does not name the leader %s", refusal.Error, leader.URL)
	}

	for _, kind := range []string{KindIdentify, KindMechanisms} {
		resp = doJSON(t, http.MethodPost, leader.URL+"/v1/snapshots", snapshotRecordRequest{Kind: kind}, nil)
		wantStatus(t, resp, http.StatusCreated)
	}
	type list struct {
		Snapshots []store.Meta `json:"snapshots"`
	}
	var want, got list
	doJSON(t, http.MethodGet, leader.URL+"/v1/snapshots", nil, &want)
	for deadline := time.Now().Add(10 * time.Second); len(got.Snapshots) < len(want.Snapshots); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("follower holds %d of the leader's %d records", len(got.Snapshots), len(want.Snapshots))
		}
		doJSON(t, http.MethodGet, follower.URL+"/v1/snapshots", nil, &got)
	}
	for i, m := range got.Snapshots {
		if w := want.Snapshots[i]; m.Seq != w.Seq || m.ID != w.ID {
			t.Fatalf("follower record %d = seq %d id %s, leader's = seq %d id %s", i, m.Seq, m.ID, w.Seq, w.ID)
		}
	}
	var metrics MetricsDoc
	doJSON(t, http.MethodGet, follower.URL+"/metrics", nil, &metrics)
	if r := metrics.Replica; r == nil || r.Applied != 2 || r.Errors != 0 {
		t.Fatalf("follower census = %+v, want 2 applied and no errors", r)
	}

	srv, err := New(Options{Follow: leader.URL, Monitor: &monitor.Options{}})
	if err == nil {
		srv.Shutdown(context.Background()) //nolint:errcheck // the test fails either way
		t.Fatal("New accepted Follow with Monitor")
	}
}

// TestFollowerRefusesDivergedTail: a record written into a follower's
// store before it follows must not hide the leader's record of that
// sequence number. Sync fails naming the record and applies nothing,
// against an empty leader log and against one holding other records,
// while a follower restarted on a faithful copy of the log resumes.
func TestFollowerRefusesDivergedTail(t *testing.T) {
	_, leader := newTestServer(t, Options{})
	ctx := context.Background()
	local, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := local.Append(store.Snapshot{Kind: KindMechanisms, Body: json.RawMessage(`{"local":true}`)}); err != nil {
		t.Fatal(err)
	}
	diverged := &cluster.Follower{URL: leader.URL, Store: local}
	wantRefused := func(when string) {
		t.Helper()
		applied, err := diverged.Sync(ctx)
		if applied != 0 || err == nil || !strings.Contains(err.Error(), "diverged at record 1") || local.LastSeq() != 1 {
			t.Fatalf("%s: Sync = (%d, %v) leaving seq %d, want nothing applied and divergence at record 1", when, applied, err, local.LastSeq())
		}
	}
	wantRefused("empty leader log")
	for _, kind := range []string{KindIdentify, KindMechanisms} {
		resp := doJSON(t, http.MethodPost, leader.URL+"/v1/snapshots", snapshotRecordRequest{Kind: kind}, nil)
		wantStatus(t, resp, http.StatusCreated)
	}
	wantRefused("leader log with records")

	replica, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	if applied, err := (&cluster.Follower{URL: leader.URL, Store: replica}).Sync(ctx); applied != 2 || err != nil {
		t.Fatalf("fresh replica Sync = (%d, %v), want (2, nil)", applied, err)
	}
	if applied, err := (&cluster.Follower{URL: leader.URL, Store: replica}).Sync(ctx); applied != 0 || err != nil {
		t.Fatalf("restarted follower Sync = (%d, %v), want (0, nil)", applied, err)
	}
}

// TestClusterTokenAuth locks down the worker/replica protocol: with a
// cluster token configured, every /v1/cluster/* protocol endpoint must
// reject requests without the token, and accept them with it — so no
// anonymous client can lease shards, forge fragments into the merge and
// replication log, or fail jobs with repeated error posts.
func TestClusterTokenAuth(t *testing.T) {
	opts := clusterTestOptions(1)
	opts.ClusterToken = "s3cret"
	_, ts := newTestServer(t, opts)

	protocol := []struct {
		method, path string
	}{
		{http.MethodPost, "/v1/cluster/lease"},
		{http.MethodPost, "/v1/cluster/result"},
		{http.MethodPost, "/v1/cluster/heartbeat"},
		{http.MethodPost, "/v1/cluster/release"},
		{http.MethodGet, "/v1/cluster/log"},
	}
	for _, ep := range protocol {
		req, err := http.NewRequest(ep.method, ts.URL+ep.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", ep.method, ep.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s without token = %d, want 401", ep.method, ep.path, resp.StatusCode)
		}

		req, err = http.NewRequest(ep.method, ts.URL+ep.path, nil)
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(cluster.TokenHeader, "wrong")
		resp, err = http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", ep.method, ep.path, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Errorf("%s %s with wrong token = %d, want 401", ep.method, ep.path, resp.StatusCode)
		}
	}

	// The right token speaks the protocol normally.
	body, _ := json.Marshal(cluster.LeaseRequest{Worker: "authed"})
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/cluster/lease", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set(cluster.TokenHeader, "s3cret")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("authed lease: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("authed lease = %d, want 200", resp.StatusCode)
	}

	// The in-process workers use the local transport, so the pipeline
	// still runs under a token-locked protocol.
	postBody(t, ts.URL+"/v1/mechanisms?wait=1")
}

// TestClusterLeaseValidation checks the protocol endpoints reject
// malformed requests: each of the four without a worker id, and a
// result carrying neither fragment nor error.
func TestClusterLeaseValidation(t *testing.T) {
	_, ts := newTestServer(t, clusterTestOptions(1))

	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/lease", cluster.LeaseRequest{}, nil)
	wantStatus(t, resp, http.StatusBadRequest)

	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/result",
		cluster.ResultRequest{Worker: "w"}, nil)
	wantStatus(t, resp, http.StatusBadRequest)

	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/result",
		cluster.ResultRequest{Error: "boom"}, nil)
	wantStatus(t, resp, http.StatusBadRequest)

	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/heartbeat", cluster.HeartbeatRequest{}, nil)
	wantStatus(t, resp, http.StatusBadRequest)

	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/release",
		cluster.ReleaseRequest{Refs: []cluster.LeaseRef{{Job: "c1"}}}, nil)
	wantStatus(t, resp, http.StatusBadRequest)
}
