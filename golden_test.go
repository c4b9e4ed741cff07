package filtermap_test

import (
	"context"
	"encoding/json"
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
// or rendering shows up as a diff against testdata/*.golden. Each table
// is also rendered from its document after a JSON round trip
// (compareGoldenDoc), so the goldens pin that a served or stored
// document carries everything its table prints.
//
// Regenerate after an intentional change with:
//
//	go run ./cmd/fmrepro -only table1 > testdata/table1.golden
//	go run ./cmd/fmrepro -only table2 > testdata/table2.golden
//	go run ./cmd/fmrepro -only figure1 > testdata/figure1.golden
//	go run ./cmd/fmrepro -only table3 > testdata/table3.golden
//	go run ./cmd/fmrepro -only table4 > testdata/table4.golden

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

// roundTrip encodes doc as fmserve serves it and decodes the bytes into
// a fresh value, as a client or the snapshot store reads it back.
func roundTrip[D any](t *testing.T, doc D) D {
	t.Helper()
	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	var out D
	if err := json.Unmarshal(b, &out); err != nil {
		t.Fatal(err)
	}
	return out
}

// compareGoldenDoc renders doc after a JSON round trip and compares the
// text with the golden.
func compareGoldenDoc[D any](t *testing.T, name string, doc D, render func(D) string) {
	t.Helper()
	compareGolden(t, name, render(roundTrip(t, doc)))
}

// table2Doc is the Table 2 document fmrepro -only table2 renders.
func table2Doc() report.Table2Doc {
	return report.Table2JSON(fingerprint.ShodanKeywords(), fingerprint.Table2SignatureDescriptions())
}

// renderFigure1 renders fmrepro's figure1 step: the map, then the
// installation list.
func renderFigure1(doc report.IdentifyDoc) string {
	return report.Figure1(doc) + "\n" + report.Installations(doc)
}

// renderTable4 renders fmrepro's table4 step: the matrix, then its note.
func renderTable4(doc report.Table4Doc) string {
	return report.Table4(doc) + "\n(cells reconstructed from §5 prose; see EXPERIMENTS.md)\n"
}

func TestGoldenTable1(t *testing.T) {
	var r filtermap.Reporter
	compareGolden(t, "table1.golden", r.Table1())
	compareGoldenDoc(t, "table1.golden", r.Table1JSON(), report.Table1)
}

func TestGoldenTable2(t *testing.T) {
	compareGolden(t, "table2.golden", report.Table2(table2Doc()))
	compareGoldenDoc(t, "table2.golden", table2Doc(), report.Table2)
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
	var r filtermap.Reporter
	compareGolden(t, "table3.golden", r.Table3(outcomes))
	compareGoldenDoc(t, "table3.golden", r.Table3JSON(outcomes), report.Table3)
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
	var r filtermap.Reporter
	compareGolden(t, "figure1.golden", r.Figure1(rep)+"\n"+r.Installations(rep))
	compareGoldenDoc(t, "figure1.golden", r.IdentifyJSON(rep), renderFigure1)
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
	var r filtermap.Reporter
	compareGolden(t, "table4.golden", r.Table4(reports)+"\n(cells reconstructed from §5 prose; see EXPERIMENTS.md)")
	compareGoldenDoc(t, "table4.golden", r.Table4JSON(reports), renderTable4)
}
