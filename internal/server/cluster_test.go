package server

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"testing"
	"time"

	"filtermap/internal/cluster"
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
// section, and the replication-log tail fed by OnComplete appends.
func TestClusterStatusMetricsAndLog(t *testing.T) {
	_, ts := newTestServer(t, clusterTestOptions(2))

	postBody(t, ts.URL+"/v1/mechanisms?wait=1")

	var status cluster.StatusDoc
	resp := doJSON(t, http.MethodGet, ts.URL+"/v1/cluster", nil, &status)
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
	if metrics.Cluster.AppendErrors != 0 {
		t.Fatalf("AppendErrors = %d after clean runs, want 0", metrics.Cluster.AppendErrors)
	}

	// The completed run appended to the store — the replication log.
	var logResp cluster.LogResponse
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/log", nil, &logResp)
	wantStatus(t, resp, http.StatusOK)
	if len(logResp.Records) == 0 || logResp.LastSeq == 0 {
		t.Fatalf("replication log empty after a clustered run: %+v", logResp)
	}
	if logResp.Records[0].Meta.Note != "cluster" {
		t.Fatalf("log record note = %q, want cluster", logResp.Records[0].Meta.Note)
	}

	// Tailing from the end returns nothing new.
	resp = doJSON(t, http.MethodGet, ts.URL+"/v1/cluster/log?after="+
		strconv.FormatUint(logResp.LastSeq, 10), nil, &logResp)
	wantStatus(t, resp, http.StatusOK)
	if len(logResp.Records) != 0 {
		t.Fatalf("tail past LastSeq returned %d records", len(logResp.Records))
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
// malformed requests.
func TestClusterLeaseValidation(t *testing.T) {
	_, ts := newTestServer(t, clusterTestOptions(1))

	resp := doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/lease", cluster.LeaseRequest{}, nil)
	wantStatus(t, resp, http.StatusBadRequest)

	resp = doJSON(t, http.MethodPost, ts.URL+"/v1/cluster/result",
		cluster.ResultRequest{Worker: "w"}, nil)
	wantStatus(t, resp, http.StatusBadRequest)
}
