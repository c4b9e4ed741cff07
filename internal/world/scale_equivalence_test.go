// The scale equivalence battery (DESIGN.md §16): a world whose synthetic
// population is answered by the scale realm must be byte-identical to
// one with every synthetic host registered by the reference builder,
// for every rendered artifact, at any worker count. `make world-golden`
// pins it under -race.
package world_test

import (
	"context"
	"fmt"
	"strings"
	"testing"
	"time"

	"filtermap"
	"filtermap/internal/world"
)

// renderArtifact reproduces one fmrepro step byte for byte on a fresh
// city world, built with the given worker count and, when reference is
// set, with every synthetic host registered before the run.
func renderArtifact(t *testing.T, name string, workers int, reference bool) string {
	t.Helper()
	opts := filtermap.Options{Scale: filtermap.ScaleCity}
	if name == "mechanisms" {
		opts.Mechanisms = &filtermap.MechanismOptions{}
	}
	w, err := filtermap.NewWorld(opts, filtermap.WithWorkers(workers))
	if err != nil {
		t.Fatalf("NewWorld(%+v): %v", opts, err)
	}
	t.Cleanup(w.Close)
	if reference {
		if err := world.BuildScaleReference(w); err != nil {
			t.Fatalf("reference build: %v", err)
		}
	}
	ctx := context.Background()
	var r filtermap.Reporter
	switch name {
	case "identify":
		rep, err := w.RunIdentification(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return r.Figure1(rep) + "\n" + r.Installations(rep)
	case "table3":
		outcomes, err := w.RunTable3(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return r.Table3(outcomes)
	case "table4":
		w.Clock.Advance(8 * time.Hour)
		reports, err := w.RunCharacterization(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return r.Table4(reports)
	case "discovery":
		w.Clock.Advance(8 * time.Hour)
		targets, err := w.RunDiscovery(ctx, filtermap.DiscoveryOptions{})
		if err != nil {
			t.Fatal(err)
		}
		return r.Discovery(0, 0, targets)
	case "mechanisms":
		targets, err := w.RunMechanismSurvey(ctx)
		if err != nil {
			t.Fatal(err)
		}
		return r.Mechanisms(targets) + "\n" + r.Table4Mechanisms(targets)
	}
	t.Fatalf("unknown artifact %q", name)
	return ""
}

// diffArtifacts fails with the first differing line when two renderings
// of the same artifact diverge.
func diffArtifacts(t *testing.T, label, a, b string) {
	t.Helper()
	if a == b {
		return
	}
	la, lb := strings.Split(a, "\n"), strings.Split(b, "\n")
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
	t.Fatalf("%s diverged", label)
}

// TestScaleCityRealmReferenceEquivalence is the determinism tentpole: at
// the city profile every artifact must be byte-identical whether the
// synthetic population is answered by the realm (scan order and worker
// count decide when each console is built) or registered host by host
// by the reference builder.
func TestScaleCityRealmReferenceEquivalence(t *testing.T) {
	for _, name := range []string{"identify", "table3", "table4", "discovery", "mechanisms"} {
		t.Run(name, func(t *testing.T) {
			var baseline string
			for _, workers := range []int{1, 8} {
				realm := renderArtifact(t, name, workers, false)
				ref := renderArtifact(t, name, workers, true)
				diffArtifacts(t, fmt.Sprintf("%s realm-vs-reference at %d workers", name, workers), realm, ref)
				if baseline == "" {
					baseline = realm
				} else {
					diffArtifacts(t, name+" across worker counts", baseline, realm)
				}
			}
		})
	}
}
