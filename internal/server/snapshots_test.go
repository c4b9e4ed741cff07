package server

import (
	"net/http"
	"testing"

	"filtermap/internal/plan"
	"filtermap/internal/store"
)

// TestDiffStatus checks GET /v1/diff's error statuses: snapshots of two
// kinds are the client's mistake (400, with the diff engine's message),
// while a stored body that does not decode is the server's (500).
func TestDiffStatus(t *testing.T) {
	srv, ts := newTestServer(t, Options{})
	for _, rec := range []snapshotRecordRequest{
		{Kind: KindIdentify, Request: []byte(`{"countries":["YE"]}`)},
		{Kind: KindCharacterize, Request: []byte(`{"isps":["YemenNet"]}`)},
	} {
		wantStatus(t, doJSON(t, "POST", ts.URL+"/v1/snapshots", rec, nil), http.StatusCreated)
	}
	var got map[string]string
	resp := doJSON(t, "GET", ts.URL+"/v1/diff?from=1&to=2", nil, &got)
	wantStatus(t, resp, http.StatusBadRequest)
	if want := `plan: cannot diff kind "identify" against "table4"`; got["error"] != want {
		t.Errorf("kind mismatch error = %q, want %q", got["error"], want)
	}

	for _, body := range []string{`[]`, `"not an identify document"`} {
		if _, err := srv.snaps.Append(store.Snapshot{Kind: plan.StoreIdentify, Body: []byte(body)}); err != nil {
			t.Fatal(err)
		}
	}
	wantStatus(t, doJSON(t, "GET", ts.URL+"/v1/diff?from=3&to=4", nil, nil), http.StatusInternalServerError)
}
