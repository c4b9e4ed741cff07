package report

import (
	"encoding/json"
	"errors"
	"strings"
	"testing"

	"filtermap/internal/measurement"
	"filtermap/internal/mechanism"
	"filtermap/internal/world"
)

// mechTargets builds a two-ISP fixture: a DNS-censoring ISP with a
// secondary RST probe firing (a mixed deployment), and an SNI-censoring
// ISP with one degraded probe and one uncensored URL.
func mechTargets() []world.MechanismSurveyTarget {
	dnsResult := measurement.MechanismResult{
		Result: measurement.Result{URL: "http://global-lgbt.org/"},
		Probes: []measurement.MechanismProbe{
			{Kind: mechanism.KindDNS, Detected: true, Product: "Netsweeper", Evidence: "sinkhole=203.0.113.40 ttl=300"},
			{Kind: mechanism.KindRST, Detected: true, Product: "Netsweeper", Evidence: "rst ttl=64 win=8192 one-sided"},
		},
		Mechanism: mechanism.KindDNS, MechProduct: "Netsweeper", MechEvidence: "sinkhole=203.0.113.40 ttl=300",
	}
	sniResult := measurement.MechanismResult{
		Result: measurement.Result{URL: "http://global-media-freedom.org/"},
		Probes: []measurement.MechanismProbe{
			{Kind: mechanism.KindSNI, Detected: true, Product: "Websense", Evidence: "sni reset ttl=255 win=4096; blocks without sni"},
			{Kind: mechanism.KindDNS, Degraded: "resolver unreachable"},
		},
		Mechanism: mechanism.KindSNI, MechProduct: "Websense", MechEvidence: "sni reset ttl=255 win=4096; blocks without sni",
	}
	cleanResult := measurement.MechanismResult{
		Result: measurement.Result{URL: "http://global-gambling.org/"},
	}
	return []world.MechanismSurveyTarget{
		{Country: "TR", ISP: "TurkTelekom", ASN: 9121, Results: []measurement.MechanismResult{dnsResult}},
		{Country: "EG", ISP: "TelecomEgypt", ASN: 8452, Results: []measurement.MechanismResult{sniResult, cleanResult}},
	}
}

func TestMechanismSurveyRendersFindingsAndDegraded(t *testing.T) {
	out := MechanismSurvey(MechanismsJSON(mechTargets()))
	for _, want := range []string{
		"Mechanism survey:",
		"TurkTelekom", "TR (AS 9121)", "sinkhole=203.0.113.40 ttl=300",
		// The mixed deployment's secondary RST finding surfaces too.
		"rst ttl=64 win=8192 one-sided",
		"TelecomEgypt", "sni reset ttl=255 win=4096",
		"2 ISP(s) surveyed, 3 URL(s) tested, 2 censored.",
		// The degraded DNS probe on TelecomEgypt triggers the footer.
		"DEGRADED: 1 survey run(s) had inconclusive probes:",
		"TelecomEgypt (AS 8452): 1 inconclusive probe line(s)",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("MechanismSurvey missing %q:\n%s", want, out)
		}
	}
}

func TestTable4MechanismsMarksCategoriesAndMixedKinds(t *testing.T) {
	out := Table4Mechanisms(mechTargets())
	for _, want := range []string{
		"Table 4 (mechanisms):",
		// Mixed deployment renders as dns+rst in report kind order.
		"dns+rst",
		"Netsweeper", "Websense", "sni",
		"Gay, Lesbian, Bisexual and Transgender",
		"Media Freedom / Independent Media",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table4Mechanisms missing %q:\n%s", want, out)
		}
	}
	// The clean gambling URL must not mark a category: exactly one "x"
	// per censored row.
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "Netsweeper") || strings.HasPrefix(line, "Websense") {
			if n := strings.Count(line, " x "); n != 1 {
				t.Fatalf("row has %d marked categories, want 1: %q", n, line)
			}
		}
	}
}

func TestMechanismsJSONShape(t *testing.T) {
	doc := MechanismsJSON(mechTargets())
	if len(doc.Mechanisms) != 2 {
		t.Fatalf("doc has %d ISPs, want 2", len(doc.Mechanisms))
	}
	tr := doc.Mechanisms[0]
	if tr.ISP != "TurkTelekom" || tr.Tested != 1 || tr.Censored != 1 {
		t.Fatalf("TurkTelekom doc = %+v", tr)
	}
	if len(tr.Findings) != 2 {
		t.Fatalf("mixed deployment should yield 2 findings, got %+v", tr.Findings)
	}
	eg := doc.Mechanisms[1]
	if !doc.Degraded || len(eg.Degraded) != 1 {
		t.Fatalf("degraded probe not surfaced: doc.Degraded=%v isp=%+v", doc.Degraded, eg)
	}
	if len(eg.URLs) != 2 || eg.URLs[1].Verdict != "accessible" || eg.URLs[1].Mechanism != "" {
		t.Fatalf("URL docs = %+v", eg.URLs)
	}

	b, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"mechanisms"`, `"findings"`, `"urls"`, `"degraded"`} {
		if !strings.Contains(string(b), key) {
			t.Fatalf("JSON missing %s:\n%s", key, b)
		}
	}
}

func TestMechanismResultDegradedShadowedWhenCensored(t *testing.T) {
	// A censored URL's base-fetch failure (forged NXDOMAIN, injected RST)
	// is the censorship itself, not degradation.
	r := measurement.MechanismResult{
		Result:    measurement.Result{URL: "http://x.org/", Field: measurement.Fetch{Err: errors.New("no such host")}},
		Mechanism: mechanism.KindDNS, MechProduct: "Netsweeper",
	}
	if detail, ok := r.Degraded(); ok {
		t.Fatalf("censored result reported degraded: %q", detail)
	}
	r.Mechanism = ""
	if _, ok := r.Degraded(); !ok {
		t.Fatal("uncensored result with a field error should be degraded")
	}
}

func TestTable2WithMechanismsAddsColumnOnly(t *testing.T) {
	keywords := map[string][]string{"Netsweeper": {"nsw-banner"}}
	signatures := map[string][]string{"Netsweeper": {"X-Powered-By"}}
	mechSigs := map[string][]string{"Netsweeper": {"dns: sinkhole=203.0.113.40 ttl=300"}}
	out := Table2WithMechanisms(keywords, signatures, mechSigs)
	for _, want := range []string{"Mechanism signatures", "dns: sinkhole=203.0.113.40 ttl=300", "nsw-banner"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Table2WithMechanisms missing %q:\n%s", want, out)
		}
	}
}
