package filtermap_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"testing"
	"time"

	"filtermap"

	"filtermap/internal/plan"
)

// End-to-end longitudinal run: identify the same simulated Internet at
// two virtual times with known churn injected in between, persist both
// reports through the snapshot store, and check that the diff — via the
// library, the fmhist text renderer (golden file), and fmserve's GET
// /v1/diff — reports exactly the injected changes.
//
// The injected churn:
//
//   - added:    a new Netsweeper installation at 93.190.1.1 (KZ, AS64600)
//   - removed:  the Telefonica Chile Blue Coat box at 190.96.1.1 (CL)
//   - migrated: True Internet's 27.130.1.1 re-announced from AS38082
//
// Regenerate the golden after an intentional change with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenHistDiff -count=1 .
func TestGoldenHistDiff(t *testing.T) {
	dir := t.TempDir()
	w, err := filtermap.NewWorld(filtermap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()
	cfg := filtermap.ConfigHash(filtermap.Options{})

	snapshotNow := func(note string) filtermap.Snapshot {
		t.Helper()
		rep, err := w.RunIdentification(ctx)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(filtermap.Reporter{}.IdentifyJSON(rep))
		if err != nil {
			t.Fatal(err)
		}
		return filtermap.Snapshot{
			Kind:   plan.StoreIdentify,
			At:     w.Clock.Now(),
			Config: cfg,
			Note:   note,
			Body:   body,
		}
	}

	snapA := snapshotNow("baseline")

	// Inject the churn, then re-scan a virtual week later.
	if err := w.AddBackgroundInstall("netsweeper", 64600, "NEWISP-EXAMPLE", "KZ",
		"93.190.0.0/16", "93.190.1.1", "ns.newisp.example.kz"); err != nil {
		t.Fatal(err)
	}
	if err := w.RemoveInstallation("190.96.1.1"); err != nil {
		t.Fatal(err)
	}
	if err := w.MigrateInstallation("27.130.1.1", 38082, "TRUE-MOBILE Thailand", ""); err != nil {
		t.Fatal(err)
	}
	w.Clock.Advance(7 * 24 * time.Hour)
	snapB := snapshotNow("after churn")

	// Persist both through the store, exactly as fmhist record does.
	s, err := filtermap.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, snap := range []filtermap.Snapshot{snapA, snapB} {
		if _, err := s.Append(snap); err != nil {
			s.Close()
			t.Fatal(err)
		}
	}

	// Diff through the library, exactly as fmhist diff does.
	fromMeta, fromBody, err := s.Get("1")
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	toMeta, toBody, err := s.Get("2")
	if err != nil {
		s.Close()
		t.Fatal(err)
	}
	s.Close()
	d, err := filtermap.NewDiffEngine().Diff(ctx,
		plan.Input{Meta: fromMeta, Body: fromBody},
		plan.Input{Meta: toMeta, Body: toBody},
	)
	if err != nil {
		t.Fatal(err)
	}

	// Exactly the injected churn, nothing else.
	inst, ok := d.Section.(*plan.InstallDiff)
	if !ok {
		t.Fatal("diff has no installation section")
	}
	if len(inst.Added) != 1 || inst.Added[0].IP != "93.190.1.1" {
		t.Errorf("Added = %+v, want exactly 93.190.1.1", inst.Added)
	}
	if len(inst.Added) == 1 && inst.Added[0].Country != "KZ" {
		t.Errorf("added country = %q, want KZ", inst.Added[0].Country)
	}
	if len(inst.Removed) != 1 || inst.Removed[0].IP != "190.96.1.1" {
		t.Errorf("Removed = %+v, want exactly 190.96.1.1", inst.Removed)
	}
	if len(inst.Changed) != 1 {
		t.Fatalf("Changed = %+v, want exactly one entry", inst.Changed)
	}
	ch := inst.Changed[0]
	if ch.IP != "27.130.1.1" || !ch.Migrated || ch.FromASN != 7470 || ch.ToASN != 38082 {
		t.Errorf("Changed = %+v, want 27.130.1.1 migrated AS7470 -> AS38082", ch)
	}
	if ch.FromCountry != ch.ToCountry {
		t.Errorf("migration moved country %q -> %q, want it kept", ch.FromCountry, ch.ToCountry)
	}

	// The fmhist diff rendering is pinned as a golden file. Snapshot IDs
	// and virtual times are deterministic, so the whole header is too.
	text := filtermap.Reporter{}.DiffText(d)
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile("testdata/fmhist_diff.golden", []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, "fmhist_diff.golden", text)

	// fmserve over the same store dir must report the identical diff.
	srv, err := filtermap.NewServer(filtermap.ServeOptions{StoreDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Shutdown(ctx)
	ts := httptest.NewServer(srv)
	defer ts.Close()

	resp, err := http.Get(fmt.Sprintf("%s/v1/diff?from=%s&to=%s", ts.URL, fromMeta.ID, toMeta.ID))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		t.Fatalf("GET /v1/diff = %d: %s", resp.StatusCode, body)
	}
	served, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	local, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	var servedC, localC bytes.Buffer
	if err := json.Compact(&servedC, served); err != nil {
		t.Fatalf("server diff is not valid JSON: %v", err)
	}
	if err := json.Compact(&localC, local); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(servedC.Bytes(), localC.Bytes()) {
		t.Errorf("GET /v1/diff disagrees with local diff:\nserver: %s\nlocal:  %s", servedC.Bytes(), localC.Bytes())
	}
}
