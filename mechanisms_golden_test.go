package filtermap_test

import (
	"context"
	"testing"

	"filtermap"

	"filtermap/internal/fingerprint"
	"filtermap/internal/report"
)

// mechanismsRun reproduces fmrepro's `-only mechanisms` step in its
// exact output layout — the extended Table 2, the per-ISP mechanism
// survey, and the Table 4 mechanism matrix — with the worker pool
// sized as given.
func mechanismsRun(t *testing.T, workers int) string {
	t.Helper()
	w, err := filtermap.NewWorld(
		filtermap.Options{Mechanisms: &filtermap.MechanismOptions{}},
		filtermap.WithWorkers(workers),
	)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	targets, err := w.RunMechanismSurvey(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var r filtermap.Reporter
	table2 := report.Table2WithMechanisms(fingerprint.ShodanKeywords(), fingerprint.Table2SignatureDescriptions(),
		fingerprint.MechanismSignatureDescriptions())
	// The survey block also renders from its document after a JSON round
	// trip; the other two blocks have no document.
	survey := report.MechanismSurvey(roundTrip(t, r.MechanismsJSON(targets)))
	compareGolden(t, "mechanisms.golden", table2+"\n"+survey+"\n"+r.Table4Mechanisms(targets))
	return table2 + "\n" + r.Mechanisms(targets) + "\n" + r.Table4Mechanisms(targets)
}

// TestGoldenMechanisms pins the multi-mechanism survey: the seeded
// world's DNS/RST/SNI deployments must attribute a product AND a
// mechanism to every censoring ISP, byte-identically at any worker
// count — and identically to testdata/mechanisms.golden. Regenerate
// after an intentional change with `make mech-golden` (see Makefile).
func TestGoldenMechanisms(t *testing.T) {
	got1 := mechanismsRun(t, 1)
	got8 := mechanismsRun(t, 8)
	if got1 != got8 {
		l1, l8 := splitLines(got1), splitLines(got8)
		for i := 0; i < len(l1) || i < len(l8); i++ {
			var a, b string
			if i < len(l1) {
				a = l1[i]
			}
			if i < len(l8) {
				b = l8[i]
			}
			if a != b {
				t.Errorf("workers=1 vs workers=8 line %d:\n  w1: %q\n  w8: %q", i+1, a, b)
			}
		}
		t.Fatal("mechanism survey is not deterministic across worker counts")
	}
	compareGolden(t, "mechanisms.golden", got1)
}

// TestGoldenMechanismsCoverage asserts the golden is not vacuous: each
// of the three mechanism kinds must be deployed by at least three ISPs,
// and at least one ISP must mix kinds.
func TestGoldenMechanismsCoverage(t *testing.T) {
	w, err := filtermap.NewWorld(filtermap.Options{Mechanisms: &filtermap.MechanismOptions{}})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	targets, err := w.RunMechanismSurvey(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	byKind := map[string]map[string]bool{}
	mixed := 0
	for _, tgt := range targets {
		kinds := map[string]bool{}
		for _, res := range tgt.Results {
			if res.Mechanism == "" {
				continue
			}
			if res.MechProduct == "" {
				t.Errorf("%s: mechanism %s detected without product attribution", tgt.ISP, res.Mechanism)
			}
			// A detected probe is a deployment even when another mechanism
			// fronts the verdict: mixed deployments count for both kinds.
			for _, p := range res.Probes {
				if !p.Detected {
					continue
				}
				k := string(p.Kind)
				kinds[k] = true
				if byKind[k] == nil {
					byKind[k] = map[string]bool{}
				}
				byKind[k][tgt.ISP] = true
			}
		}
		if len(kinds) > 1 {
			mixed++
		}
	}
	for _, k := range []string{"dns", "rst", "sni"} {
		if len(byKind[k]) < 3 {
			t.Errorf("mechanism %s deployed by %d ISPs, want >= 3", k, len(byKind[k]))
		}
	}
	if mixed == 0 {
		t.Error("no ISP mixes mechanism kinds; the roster should include mixed deployments")
	}
}
