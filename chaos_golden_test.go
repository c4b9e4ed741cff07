package filtermap_test

import (
	"context"
	"strings"
	"testing"
	"time"

	"filtermap"

	"filtermap/internal/report"
)

// chaosSeed is the pinned fault-injection seed of testdata/chaos.golden.
// Regenerate after an intentional change with `make chaos-golden`.
const chaosSeed = 42

// chaosRun reproduces fmrepro's chaos-affected steps (figure1, table3,
// table4) in fmrepro's exact output layout, with the fault plan seeded
// and the worker pool sized as given. It also renders each step from its
// document after a JSON round trip and compares that text with the
// golden, so the documents carry every DEGRADED line too.
func chaosRun(t *testing.T, workers int) string {
	t.Helper()
	ctx := context.Background()
	var r filtermap.Reporter
	opts := filtermap.Options{ChaosSeed: chaosSeed}
	out, viaDoc := "", ""

	w1, err := filtermap.NewWorld(opts, filtermap.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	rep, err := w1.RunIdentification(ctx)
	if err != nil {
		t.Fatalf("identification under chaos must degrade, not die: %v", err)
	}
	out += r.Figure1(rep) + "\n" + r.Installations(rep) + "\n"
	viaDoc += renderFigure1(roundTrip(t, r.IdentifyJSON(rep))) + "\n"
	w1.Close()

	w2, err := filtermap.NewWorld(opts, filtermap.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	outcomes, err := w2.RunTable3(ctx)
	if err != nil {
		t.Fatalf("confirmation under chaos must degrade, not die: %v", err)
	}
	out += r.Table3(outcomes) + "\n"
	viaDoc += report.Table3(roundTrip(t, r.Table3JSON(outcomes))) + "\n"
	w2.Close()

	w3, err := filtermap.NewWorld(opts, filtermap.WithWorkers(workers))
	if err != nil {
		t.Fatal(err)
	}
	w3.Clock.Advance(8 * time.Hour)
	reports, err := w3.RunCharacterization(ctx)
	if err != nil {
		t.Fatalf("characterization under chaos must degrade, not die: %v", err)
	}
	table4 := r.Table4(reports)
	if alias := r.Table4WithReports(reports); alias != table4 {
		t.Errorf("Table4WithReports differs from Table4 on a degraded run:\n%s\nvs\n%s", alias, table4)
	}
	out += table4 + "\n(cells reconstructed from §5 prose; see EXPERIMENTS.md)\n" + "\n"
	viaDoc += renderTable4(roundTrip(t, r.Table4JSON(reports))) + "\n"
	w3.Close()

	compareGolden(t, "chaos.golden", viaDoc)
	return out
}

// TestChaosGolden pins the contract of the fault-injection layer: a
// chaos run completes with partial results, the reports carry explicit
// DEGRADED sections, and the bytes are identical at any worker count —
// and identical to testdata/chaos.golden.
func TestChaosGolden(t *testing.T) {
	got1 := chaosRun(t, 1)
	got8 := chaosRun(t, 8)
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
		t.Fatal("chaos run is not deterministic across worker counts")
	}
	compareGolden(t, "chaos.golden", got1)
}

// TestChaosRunIsDegraded asserts the golden is not vacuous: the pinned
// seed must actually produce partial results somewhere.
func TestChaosRunIsDegraded(t *testing.T) {
	w, err := filtermap.NewWorld(filtermap.Options{ChaosSeed: chaosSeed})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	outcomes, err := w.RunTable3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	degraded := 0
	for _, o := range outcomes {
		if o.Degraded() {
			degraded++
		}
	}
	if degraded == 0 {
		t.Fatal("chaos seed produced no degraded campaign; the golden pins nothing")
	}
	doc := filtermap.Reporter{}.Table3JSON(outcomes)
	if !doc.Degraded {
		t.Fatal("Table3JSON dropped the degraded marker")
	}
}

// TestChaosMechanisms pins the mechanism x fault-injection interplay: a
// mechanism survey over the mixed DNS/RST/SNI roster with the chaos
// plan installed must complete with explicitly degraded probes rather
// than dying, stay byte-identical at any worker count, and still
// attribute the deployments the faults spare.
func TestChaosMechanisms(t *testing.T) {
	run := func(workers int) string {
		w, err := filtermap.NewWorld(
			filtermap.Options{ChaosSeed: chaosSeed, Mechanisms: &filtermap.MechanismOptions{}},
			filtermap.WithWorkers(workers),
		)
		if err != nil {
			t.Fatal(err)
		}
		defer w.Close()
		targets, err := w.RunMechanismSurvey(context.Background())
		if err != nil {
			t.Fatalf("mechanism survey under chaos must degrade, not die: %v", err)
		}
		return filtermap.Reporter{}.Mechanisms(targets)
	}
	got1 := run(1)
	got8 := run(8)
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
		t.Fatal("chaos mechanism survey is not deterministic across worker counts")
	}
	if !strings.Contains(got1, "DEGRADED:") {
		t.Fatalf("chaos seed %d produced no degraded survey lines; the interplay pins nothing:\n%s", chaosSeed, got1)
	}
	if !strings.Contains(got1, "censored.") {
		t.Fatalf("survey footer missing:\n%s", got1)
	}
	// The faults must not erase attribution wholesale: at least one ISP
	// still gets a product and mechanism.
	if !strings.Contains(got1, "Netsweeper") && !strings.Contains(got1, "Blue Coat") &&
		!strings.Contains(got1, "McAfee SmartFilter") && !strings.Contains(got1, "Websense") {
		t.Fatalf("no product attributed under chaos:\n%s", got1)
	}
}

func splitLines(s string) []string {
	var out []string
	start := 0
	for i := 0; i < len(s); i++ {
		if s[i] == '\n' {
			out = append(out, s[start:i])
			start = i + 1
		}
	}
	if start < len(s) {
		out = append(out, s[start:])
	}
	return out
}
