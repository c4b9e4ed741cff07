package filtermap_test

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"filtermap"

	"filtermap/internal/monitor"
	"filtermap/internal/plan"
	"filtermap/internal/report"
	"filtermap/internal/simclock"
)

// TestGoldenDiffKinds pins the history of every snapshot kind: for a
// hand-built pair of identify, table4, discovery and mechanisms
// documents — each with added, removed and changed entries — the diff
// JSON (the GET /v1/diff and fmhist diff -json body), its text rendering
// (fmhist diff), the monitor's one-line event summary, and the timeline
// of the pair as JSON and as text.
//
// Regenerate the golden after an intentional change with:
//
//	UPDATE_GOLDEN=1 go test -run TestGoldenDiffKinds -count=1 .
func TestGoldenDiffKinds(t *testing.T) {
	ctx := context.Background()
	var out strings.Builder
	for _, c := range diffKindCases() {
		s, err := filtermap.OpenStore("")
		if err != nil {
			t.Fatal(err)
		}
		var inputs []plan.Input
		for i, doc := range []any{c.from, c.to} {
			body, err := json.Marshal(doc)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := s.Append(filtermap.Snapshot{
				Kind:   c.kind,
				At:     simclock.Epoch.Add(time.Duration(i) * 7 * 24 * time.Hour),
				Config: "cfg",
				Body:   body,
			}); err != nil {
				t.Fatal(err)
			}
			meta, stored, err := s.Get(fmt.Sprint(i + 1))
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, plan.Input{Meta: meta, Body: stored})
		}
		s.Close()

		eng := filtermap.NewDiffEngine()
		d, err := eng.Diff(ctx, inputs[0], inputs[1])
		if err != nil {
			t.Fatalf("%s: diff: %v", c.kind, err)
		}
		tl, err := eng.Timeline(ctx, inputs)
		if err != nil {
			t.Fatalf("%s: timeline: %v", c.kind, err)
		}
		ev := filtermap.MonitorEvent{
			Type: monitor.EventSnapshot, Kind: c.kind,
			Seq: inputs[1].Meta.Seq, SnapshotID: inputs[1].Meta.ID, Diff: d,
		}
		diffJSON, err := json.MarshalIndent(d, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		tlJSON, err := json.MarshalIndent(tl, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&out, "===== %s =====\n", c.kind)
		fmt.Fprintf(&out, "--- diff json\n%s\n", diffJSON)
		fmt.Fprintf(&out, "--- diff text\n%s", filtermap.Reporter{}.DiffText(d))
		fmt.Fprintf(&out, "--- event summary\n%s\n", ev.Summary())
		fmt.Fprintf(&out, "--- timeline json\n%s\n", tlJSON)
		fmt.Fprintf(&out, "--- timeline text\n%s\n", filtermap.Reporter{}.Timeline(tl))
	}
	got := out.String()
	if os.Getenv("UPDATE_GOLDEN") != "" {
		if err := os.WriteFile("testdata/diff_kinds.golden", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	compareGolden(t, "diff_kinds.golden", got)
}

type diffKindCase struct {
	kind     string
	from, to any
}

func diffKindCases() []diffKindCase {
	inst := func(ip, host, cc string, asn int, products ...string) report.InstallationDoc {
		return report.InstallationDoc{IP: ip, Hostname: host, Products: products, Country: cc, ASN: asn, ASName: fmt.Sprintf("AS-%d", asn)}
	}
	identifyDoc := func(insts ...report.InstallationDoc) report.IdentifyDoc {
		return report.IdentifyDoc{ProductCountries: map[string][]string{}, ValidatedCount: len(insts), Installations: insts}
	}
	finding := func(url string, novel bool) report.DiscoveryFindingDoc {
		return report.DiscoveryFindingDoc{URL: url, Domain: strings.SplitN(strings.TrimPrefix(url, "http://"), "/", 2)[0], Product: "Netsweeper", Novel: novel}
	}
	target := func(cc, isp string, asn int, findings ...report.DiscoveryFindingDoc) report.DiscoveryTargetDoc {
		return report.DiscoveryTargetDoc{Country: cc, ISP: isp, ASN: asn, Findings: findings}
	}
	mech := func(isp, cc string, asn, censored int, findings ...report.MechanismFindingDoc) report.MechanismISPDoc {
		return report.MechanismISPDoc{ISP: isp, Country: cc, ASN: asn, Tested: 3, Censored: censored, Findings: findings}
	}
	return []diffKindCase{
		{
			// 10.0.0.1 unchanged; 10.0.0.2 migrated and upgraded; 9.1.1.1
			// re-pointed its hostname only; 172.16.0.1 dropped a product
			// and gained a hostname; 10.0.0.3 removed; 10.0.0.10 and
			// 192.168.5.5 added (numeric order puts 10.0.0.10 after
			// 10.0.0.2).
			kind: "identify",
			from: identifyDoc(
				inst("9.1.1.1", "h.example", "AE", 400, "smartfilter"),
				inst("10.0.0.1", "a.example", "SA", 100, "bluecoat"),
				inst("10.0.0.2", "b.example", "YE", 200, "netsweeper"),
				inst("10.0.0.3", "c.example", "SA", 100, "websense"),
				inst("172.16.0.1", "", "QA", 300, "bluecoat", "websense"),
			),
			to: identifyDoc(
				inst("9.1.1.1", "h2.example", "AE", 400, "smartfilter"),
				inst("10.0.0.1", "a.example", "SA", 100, "bluecoat"),
				inst("10.0.0.2", "b.example", "QA", 300, "netsweeper", "websense"),
				inst("10.0.0.10", "j.example", "KZ", 500, "netsweeper"),
				inst("172.16.0.1", "x.example", "QA", 300, "bluecoat"),
				inst("192.168.5.5", "", "QA", 300, "bluecoat"),
			),
		},
		{
			// YE drifts (POLR unblocked, GAYL newly blocked); SA removed;
			// QA and an empty AE row added; the AE bluecoat row unchanged.
			kind: "table4",
			from: report.Table4Doc{Rows: []report.Table4RowDoc{
				{Product: "bluecoat", Country: "AE", ASN: 500, Blocked: []string{"NEWS"}},
				{Product: "bluecoat", Country: "SA", ASN: 200, Blocked: []string{"PORN"}},
				{Product: "netsweeper", Country: "YE", ASN: 100, Blocked: []string{"ANON", "POLR"}},
			}},
			to: report.Table4Doc{Rows: []report.Table4RowDoc{
				{Product: "bluecoat", Country: "AE", ASN: 500, Blocked: []string{"NEWS"}},
				{Product: "netsweeper", Country: "YE", ASN: 100, Blocked: []string{"ANON", "GAYL"}},
				{Product: "smartfilter", Country: "QA", ASN: 300, Blocked: []string{"POLR"}},
				{Product: "websense", Country: "AE", ASN: 400},
			}},
		},
		{
			// YemenNet finds d.ye and loses b.ye; the SA target is
			// removed; QA (one novel URL) and KW (none) are added; AE is
			// unchanged. The discovered list churns two URLs each way.
			kind: "discovery",
			from: report.DiscoveryDoc{
				Rounds: 2, Budget: 16,
				Targets: []report.DiscoveryTargetDoc{
					target("YE", "YemenNet", 30873, finding("http://a.ye/x", true), finding("http://b.ye/y", true), finding("http://c.ye/", false)),
					target("SA", "Saudi Telecom", 25019, finding("http://s1.sa/", true)),
					target("AE", "Etisalat", 5384, finding("http://e.ae/", true)),
				},
				Discovered: []report.DiscoveredURLDoc{
					{URL: "http://a.ye/x", Domain: "a.ye", Category: "NEWS"},
					{URL: "http://b.ye/y", Domain: "b.ye", Category: "POLR"},
					{URL: "http://e.ae/", Domain: "e.ae", Category: "ANON"},
					{URL: "http://s1.sa/", Domain: "s1.sa", Category: "PORN"},
				},
			},
			to: report.DiscoveryDoc{
				Rounds: 2, Budget: 16,
				Targets: []report.DiscoveryTargetDoc{
					target("YE", "YemenNet", 30873, finding("http://a.ye/x", true), finding("http://d.ye/z", true)),
					target("QA", "Ooredoo", 42298, finding("http://q1.qa/", true)),
					target("AE", "Etisalat", 5384, finding("http://e.ae/", true)),
					target("KW", "Zain", 42961, finding("http://k.kw/", false)),
				},
				Discovered: []report.DiscoveredURLDoc{
					{URL: "http://a.ye/x", Domain: "a.ye", Category: "NEWS"},
					{URL: "http://d.ye/z", Domain: "d.ye"},
					{URL: "http://e.ae/", Domain: "e.ae", Category: "ANON"},
					{URL: "http://q1.qa/", Domain: "q1.qa", Category: "HATE"},
				},
			},
		},
		{
			// Rostelecom migrates DNS -> SNI and changes product; Nayatel
			// changes only its censored count; TOT removed; VNPT and a
			// finding-less Zain added; Etisalat unchanged.
			kind: "mechanisms",
			from: report.MechanismsDoc{Mechanisms: []report.MechanismISPDoc{
				mech("TOT", "TH", 23969, 3, report.MechanismFindingDoc{Mechanism: "rst", Product: "Blue Coat", Evidence: "rst ttl=128"}),
				mech("Rostelecom", "RU", 12389, 3, report.MechanismFindingDoc{Mechanism: "dns", Product: "McAfee SmartFilter", Evidence: "nxdomain injection"}),
				mech("Nayatel", "PK", 23674, 2, report.MechanismFindingDoc{Mechanism: "rst", Product: "Netsweeper"}),
				mech("Etisalat", "AE", 5384, 1, report.MechanismFindingDoc{Mechanism: "dns", Product: "SmartFilter"}),
			}},
			to: report.MechanismsDoc{Mechanisms: []report.MechanismISPDoc{
				mech("Rostelecom", "RU", 12389, 2, report.MechanismFindingDoc{Mechanism: "sni", Product: "Netsweeper", Evidence: "sni reset"}),
				mech("VNPT", "VN", 45899, 3, report.MechanismFindingDoc{Mechanism: "sni", Product: "Blue Coat"}, report.MechanismFindingDoc{Mechanism: "dns", Product: "Blue Coat"}),
				mech("Nayatel", "PK", 23674, 3, report.MechanismFindingDoc{Mechanism: "rst", Product: "Netsweeper"}),
				mech("Etisalat", "AE", 5384, 1, report.MechanismFindingDoc{Mechanism: "dns", Product: "SmartFilter"}),
				mech("Zain", "KW", 42961, 0),
			}},
		},
	}
}
