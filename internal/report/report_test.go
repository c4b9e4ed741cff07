package report

import (
	"strings"
	"testing"

	"filtermap/internal/urllist"
)

func TestTableRendering(t *testing.T) {
	tb := &Table{Title: "T", Headers: []string{"A", "Blong"}}
	tb.AddRow("x", "y")
	tb.AddRow("longer", "z")
	out := tb.String()
	lines := strings.Split(strings.TrimRight(out, "\n"), "\n")
	if lines[0] != "T" {
		t.Fatalf("title line = %q", lines[0])
	}
	if !strings.Contains(lines[1], "A") || !strings.Contains(lines[1], "Blong") {
		t.Fatalf("header = %q", lines[1])
	}
	if !strings.Contains(lines[2], "---") {
		t.Fatalf("separator = %q", lines[2])
	}
	// Columns aligned: every row has the separator at the same offset.
	sep := strings.Index(lines[1], "|")
	for _, l := range lines[2:] {
		if strings.Index(l, "|") != sep {
			t.Fatalf("misaligned row: %q", l)
		}
	}
}

func TestTable1ContainsAllVendors(t *testing.T) {
	out := Table1(Table1JSON())
	for _, vendor := range []string{"Blue Coat", "McAfee SmartFilter", "Netsweeper", "Websense"} {
		if !strings.Contains(out, vendor) {
			t.Errorf("Table 1 missing %s", vendor)
		}
	}
	for _, hq := range []string{"Sunnyvale", "Santa Clara", "Guelph", "San Diego"} {
		if !strings.Contains(out, hq) {
			t.Errorf("Table 1 missing headquarters %s", hq)
		}
	}
}

func TestTable2Rendering(t *testing.T) {
	doc := Table2JSON(
		map[string][]string{"Netsweeper": {"netsweeper", "webadmin"}, "Blue Coat": {"proxysg"}},
		map[string][]string{"Netsweeper": {"built-in detection"}},
	)
	if len(doc.Products) != 2 || doc.Products[0].Product != "Blue Coat" {
		t.Fatalf("Table 2 document not sorted by product: %+v", doc.Products)
	}
	out := Table2(doc)
	if !strings.Contains(out, "netsweeper, webadmin") || !strings.Contains(out, "built-in detection") {
		t.Fatalf("Table 2 = %s", out)
	}
}

func TestTable3Rendering(t *testing.T) {
	row := Table3RowDoc{
		Product: "Netsweeper", Country: "YE", ISP: "YemenNet", ASN: 12486,
		Date: "3/2013", Category: "Proxy anonymizer",
		Submitted: 6, Domains: 12, Blocked: 6, Confirmed: true,
	}
	out := Table3(Table3Doc{Rows: []Table3RowDoc{row}})
	for _, want := range []string{"Netsweeper", "YemenNet (AS 12486)", "3/2013", "6/12", "6/6", "YES", "Proxy anonymizer"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 3 missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "DEGRADED") {
		t.Errorf("clean campaign got a degraded footer:\n%s", out)
	}
	row.Confirmed = false
	row.Blocked = 0
	row.SubmitErrors = []string{"portal unreachable"}
	row.MeasurementErrors = []string{"http://a/: timeout", "http://b/: reset"}
	row.Degraded = true
	out = Table3(Table3Doc{Rows: []Table3RowDoc{row}, Degraded: true})
	for _, want := range []string{"0/6", "no", "DEGRADED: 1 campaign(s) ran on partial evidence:",
		"  Netsweeper/YemenNet (AS 12486): 1 submit error(s), 2 degraded measurement(s)"} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded unconfirmed row missing %q:\n%s", want, out)
		}
	}
}

func TestTable4Rendering(t *testing.T) {
	doc := Table4Doc{
		Columns: table4Columns(),
		Rows: []Table4RowDoc{{
			Product: "Netsweeper", Country: "YE", ASN: 12486,
			Blocked: []string{urllist.CatMediaFreedom, urllist.CatLGBT},
		}},
		Reports: []CountryReportDoc{{Country: "YE", ISP: "YemenNet", ASN: 12486}},
	}
	out := Table4(doc)
	if !strings.Contains(out, "Netsweeper") || !strings.Contains(out, "YE (AS 12486)") {
		t.Fatalf("Table 4 = %s", out)
	}
	if !strings.Contains(out, "Media Freedom") {
		t.Fatal("Table 4 missing column names")
	}
	if strings.Count(out, "x") < 2 {
		t.Fatalf("Table 4 missing cell marks:\n%s", out)
	}
	if strings.Contains(out, "DEGRADED") {
		t.Fatalf("clean run got a degraded footer:\n%s", out)
	}
	doc.Reports[0].Errors = []string{"http://a/: timeout"}
	doc.Reports[0].Degraded = true
	want := "DEGRADED: 1 characterization run(s) had partial measurements:\n  YE YemenNet (AS 12486): 1 degraded measurement(s)\n"
	if out := Table4(doc); !strings.HasSuffix(out, want) {
		t.Fatalf("degraded run's footer missing:\n%s", out)
	}
}

func TestTable5Rendering(t *testing.T) {
	out := Table5([]Table5Row{{
		Step: "Identify", Technique: "Port scans", Limitation: "visible only",
		Evasion: "hide device", Outcome: "0 installs; 5/5 confirmed",
	}})
	for _, want := range []string{"Port scans", "hide device", "5/5 confirmed"} {
		if !strings.Contains(out, want) {
			t.Errorf("Table 5 missing %q", want)
		}
	}
}

func TestFigure1Rendering(t *testing.T) {
	doc := IdentifyDoc{
		ProductCountries: map[string][]string{"Netsweeper": {"YE"}, "McAfee SmartFilter": {"SA"}},
		CandidateCount:   10,
		ValidatedCount:   7,
		// One validated decoy among ten candidates.
		FalsePositiveRate: 0.3,
	}
	out := Figure1(doc)
	if !strings.Contains(out, "Netsweeper:") || !strings.Contains(out, "YE") {
		t.Fatalf("Figure 1 = %s", out)
	}
	if strings.Index(out, "McAfee SmartFilter:") > strings.Index(out, "Netsweeper:") {
		t.Fatalf("Figure 1 products not sorted:\n%s", out)
	}
	if !strings.Contains(out, "false-positive rate 30%") {
		t.Fatalf("Figure 1 missing fp rate: %s", out)
	}
	doc.StageErrors = []StageErrorDoc{{Stage: "validate", Target: "10.0.0.1", Error: "timeout"}}
	doc.QueryErrors = []QueryErrorDoc{{Product: "Netsweeper", Query: "netsweeper", Error: "index closed"}}
	doc.Degraded = true
	out = Figure1(doc)
	for _, want := range []string{
		"  DEGRADED: partial coverage (1 stage error(s), 1 query error(s))\n",
		"    validate 10.0.0.1: timeout\n",
		"    query Netsweeper \"netsweeper\": index closed\n",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("degraded Figure 1 missing %q:\n%s", want, out)
		}
	}
}

func TestInstallationsRendering(t *testing.T) {
	doc := IdentifyDoc{
		Installations: []InstallationDoc{{
			IP: "82.114.160.1", Hostname: "ns1.yemen.net.ye",
			Products: []string{"Netsweeper"}, Country: "YE", ASN: 12486, ASName: "YEMENNET",
		}},
	}
	out := Installations(doc)
	for _, want := range []string{"82.114.160.1", "ns1.yemen.net.ye", "Netsweeper", "12486", "YEMENNET"} {
		if !strings.Contains(out, want) {
			t.Errorf("Installations missing %q", want)
		}
	}
}
