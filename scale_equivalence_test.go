// The scale compatibility battery (DESIGN.md §16): the default profile
// must leave every committed golden untouched at any worker count. The
// city realm-vs-reference battery lives in internal/world, next to the
// reference builder. `make world-golden` pins both under -race.
package filtermap_test

import (
	"context"
	"testing"
	"time"

	"filtermap"

	"filtermap/internal/fingerprint"
	"filtermap/internal/report"
)

// scaleWorld builds a world with the given options and engine worker
// count, torn down with the test.
func scaleWorld(t *testing.T, opts filtermap.Options, workers int) *filtermap.World {
	t.Helper()
	w, err := filtermap.NewWorld(opts, filtermap.WithWorkers(workers))
	if err != nil {
		t.Fatalf("NewWorld(%+v): %v", opts, err)
	}
	t.Cleanup(w.Close)
	return w
}

// The artifact renderers, each reproducing one fmrepro step byte for
// byte on a fresh world.

func identifyArtifact(t *testing.T, opts filtermap.Options, workers int) string {
	t.Helper()
	w := scaleWorld(t, opts, workers)
	rep, err := w.RunIdentification(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var r filtermap.Reporter
	return r.Figure1(rep) + "\n" + r.Installations(rep)
}

func table3Artifact(t *testing.T, opts filtermap.Options, workers int) string {
	t.Helper()
	w := scaleWorld(t, opts, workers)
	outcomes, err := w.RunTable3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return filtermap.Reporter{}.Table3(outcomes)
}

func table4Artifact(t *testing.T, opts filtermap.Options, workers int) string {
	t.Helper()
	w := scaleWorld(t, opts, workers)
	w.Clock.Advance(8 * time.Hour)
	reports, err := w.RunCharacterization(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	return filtermap.Reporter{}.Table4(reports) + "\n(cells reconstructed from §5 prose; see EXPERIMENTS.md)"
}

func discoveryArtifact(t *testing.T, opts filtermap.Options, workers int) string {
	t.Helper()
	w := scaleWorld(t, opts, workers)
	w.Clock.Advance(8 * time.Hour)
	targets, err := w.RunDiscovery(context.Background(), filtermap.DiscoveryOptions{})
	if err != nil {
		t.Fatal(err)
	}
	return filtermap.Reporter{}.Discovery(0, 0, targets)
}

func mechanismsArtifact(t *testing.T, opts filtermap.Options, workers int) string {
	t.Helper()
	opts.Mechanisms = &filtermap.MechanismOptions{}
	w := scaleWorld(t, opts, workers)
	targets, err := w.RunMechanismSurvey(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var r filtermap.Reporter
	return r.Mechanisms(targets) + "\n" + r.Table4Mechanisms(targets)
}

// scaleArtifacts names every world-backed artifact in the battery.
var scaleArtifacts = []struct {
	name   string
	render func(*testing.T, filtermap.Options, int) string
}{
	{"identify", identifyArtifact},
	{"table3", table3Artifact},
	{"table4", table4Artifact},
	{"discovery", discoveryArtifact},
	{"mechanisms", mechanismsArtifact},
}

// diffArtifacts fails with the first differing line when two renderings
// of the same artifact diverge.
func diffArtifacts(t *testing.T, label, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := splitLines(a), splitLines(b)
	for i := 0; i < len(la) || i < len(lb); i++ {
		var x, y string
		if i < len(la) {
			x = la[i]
		}
		if i < len(lb) {
			y = lb[i]
		}
		if x != y {
			t.Fatalf("%s line %d:\n  a: %q\n  b: %q", label, i+1, x, y)
		}
	}
	t.Fatalf("%s diverged (lengths %d vs %d)", label, len(a), len(b))
}

// TestScaleSmallProfileMatchesGoldens pins the compatibility half of
// the scale contract: Options.Scale "small" (the explicit default)
// reproduces every committed golden byte for byte, at 1 and 8 workers.
// Table 1 and 2 ride along even though no world backs them, completing
// the Table 1/2/3/4 battery.
func TestScaleSmallProfileMatchesGoldens(t *testing.T) {
	compareGolden(t, "table1.golden", filtermap.Reporter{}.Table1())
	compareGolden(t, "table2.golden", report.Table2(table2Doc()))

	opts := filtermap.Options{Scale: filtermap.ScaleSmall}
	goldens := map[string]string{
		"identify":  "figure1.golden",
		"table3":    "table3.golden",
		"table4":    "table4.golden",
		"discovery": "discovery.golden",
	}
	for _, workers := range []int{1, 8} {
		for _, art := range scaleArtifacts {
			golden, ok := goldens[art.name]
			if !ok {
				continue // mechanisms.golden carries extra Table 2 framing, pinned below
			}
			compareGolden(t, golden, art.render(t, opts, workers))
		}
		got := report.Table2WithMechanisms(fingerprint.ShodanKeywords(), fingerprint.Table2SignatureDescriptions(),
			fingerprint.MechanismSignatureDescriptions()) + "\n" +
			mechanismsArtifact(t, opts, workers)
		compareGolden(t, "mechanisms.golden", got)
	}
}

// TestScaleConfigHash pins the cache-key plumbing: the scale profile
// must flow into ConfigHash, so fmserve cache entries and snapshot IDs
// never mix worlds of different scales.
func TestScaleConfigHash(t *testing.T) {
	def := filtermap.ConfigHash(filtermap.Options{})
	city := filtermap.ConfigHash(filtermap.Options{Scale: filtermap.ScaleCity})
	nation := filtermap.ConfigHash(filtermap.Options{Scale: filtermap.ScaleNation})
	if def == city || city == nation {
		t.Fatalf("scale missing from config hash: default %s, city %s, nation %s", def, city, nation)
	}
}
