package filtermap_test

import (
	"context"
	"os"
	"strings"
	"testing"
	"time"

	"filtermap"

	"filtermap/internal/fingerprint"
	"filtermap/internal/report"
)

// Golden-file regression tests: the rendered paper tables are pinned
// byte-for-byte so any drift in world configuration, campaign mechanics
// or rendering shows up as a diff against testdata/*.golden.
//
// Regenerate after an intentional change with:
//
//	go run ./cmd/fmrepro -only table1 > testdata/table1.golden
//	go run ./cmd/fmrepro -only table2 > testdata/table2.golden
//	go run ./cmd/fmrepro -only table3 > testdata/table3.golden

func readGolden(t *testing.T, name string) string {
	t.Helper()
	b, err := os.ReadFile("testdata/" + name)
	if err != nil {
		t.Fatalf("read golden: %v", err)
	}
	return string(b)
}

func compareGolden(t *testing.T, name, got string) {
	t.Helper()
	want := readGolden(t, name)
	// fmrepro appends a trailing blank line between artifacts.
	if strings.TrimRight(got, "\n") == strings.TrimRight(want, "\n") {
		return
	}
	gotLines := strings.Split(got, "\n")
	wantLines := strings.Split(want, "\n")
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w string
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if strings.TrimRight(g, " ") != strings.TrimRight(w, " ") {
			t.Errorf("%s line %d:\n got: %q\nwant: %q", name, i+1, g, w)
		}
	}
	if !t.Failed() {
		// Differences were only in trailing whitespace/newlines.
		return
	}
	t.Fatalf("%s drifted from golden output", name)
}

func TestGoldenTable1(t *testing.T) {
	compareGolden(t, "table1.golden", filtermap.Reporter{}.Table1())
}

func TestGoldenTable2(t *testing.T) {
	sigDescs := fingerprint.Table2SignatureDescriptions()
	compareGolden(t, "table2.golden", report.Table2(fingerprint.ShodanKeywords(), sigDescs))
}

func TestGoldenTable3(t *testing.T) {
	w, err := filtermap.NewWorld(filtermap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	outcomes, err := w.RunTable3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	compareGolden(t, "table3.golden", filtermap.Reporter{}.Table3(outcomes))
}

func TestGoldenFigure1(t *testing.T) {
	w, err := filtermap.NewWorld(filtermap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rep, err := w.RunIdentification(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := filtermap.Reporter{}.Figure1(rep) + "\n" + filtermap.Reporter{}.Installations(rep)
	compareGolden(t, "figure1.golden", got)
}

func TestGoldenTable4(t *testing.T) {
	w, err := filtermap.NewWorld(filtermap.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	w.Clock.Advance(8 * time.Hour)
	reports, err := w.RunCharacterization(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	got := filtermap.Reporter{}.Table4(reports) + "\n(cells reconstructed from §5 prose; see EXPERIMENTS.md)"
	compareGolden(t, "table4.golden", got)
}
