package plan

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/report"
	"filtermap/internal/simclock"
	"filtermap/internal/store"
)

func mustJSON(t testing.TB, v any) json.RawMessage {
	t.Helper()
	b, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func identifyInput(t testing.TB, seq uint64, at time.Time, insts []report.InstallationDoc) Input {
	t.Helper()
	body := mustJSON(t, report.IdentifyDoc{
		ProductCountries: map[string][]string{},
		ValidatedCount:   len(insts),
		Installations:    insts,
	})
	return Input{
		Meta: store.Meta{Seq: seq, ID: store.ContentID(StoreIdentify, "cfg", body), Kind: StoreIdentify, At: at},
		Body: body,
	}
}

func TestDiffInstalls(t *testing.T) {
	at := simclock.Epoch
	from := identifyInput(t, 1, at, []report.InstallationDoc{
		{IP: "10.0.0.1", Hostname: "a.example", Products: []string{"bluecoat"}, Country: "SA", ASN: 100, ASName: "AS-A"},
		{IP: "10.0.0.2", Hostname: "b.example", Products: []string{"netsweeper"}, Country: "YE", ASN: 200, ASName: "AS-B"},
		{IP: "10.0.0.3", Hostname: "c.example", Products: []string{"websense"}, Country: "SA", ASN: 100, ASName: "AS-A"},
	})
	to := identifyInput(t, 2, at.Add(7*24*time.Hour), []report.InstallationDoc{
		// 10.0.0.1 unchanged; 10.0.0.2 migrated AS and gained a product;
		// 10.0.0.3 removed; 10.0.0.9 added.
		{IP: "10.0.0.1", Hostname: "a.example", Products: []string{"bluecoat"}, Country: "SA", ASN: 100, ASName: "AS-A"},
		{IP: "10.0.0.2", Hostname: "b.example", Products: []string{"netsweeper", "websense"}, Country: "QA", ASN: 300, ASName: "AS-C"},
		{IP: "10.0.0.9", Hostname: "z.example", Products: []string{"smartfilter"}, Country: "AE", ASN: 400, ASName: "AS-D"},
	})

	stats := engine.NewStats()
	e := NewDiffEngine(engine.WithStats(stats))
	d, err := e.Diff(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	id, ok := d.Section.(*InstallDiff)
	if !ok {
		t.Fatalf("identify diff carries the wrong section: %+v", d)
	}
	if id.FromTotal != 3 || id.ToTotal != 3 || id.Unchanged != 1 {
		t.Fatalf("totals = %d->%d unchanged %d, want 3->3 unchanged 1", id.FromTotal, id.ToTotal, id.Unchanged)
	}
	if len(id.Added) != 1 || id.Added[0].IP != "10.0.0.9" {
		t.Fatalf("Added = %+v, want 10.0.0.9", id.Added)
	}
	if len(id.Removed) != 1 || id.Removed[0].IP != "10.0.0.3" {
		t.Fatalf("Removed = %+v, want 10.0.0.3", id.Removed)
	}
	if len(id.Changed) != 1 {
		t.Fatalf("Changed = %+v, want one entry", id.Changed)
	}
	c := id.Changed[0]
	if c.IP != "10.0.0.2" || !c.Migrated || !c.Upgraded {
		t.Fatalf("change = %+v, want migrated+upgraded 10.0.0.2", c)
	}
	if c.FromASN != 200 || c.ToASN != 300 || c.FromCountry != "YE" || c.ToCountry != "QA" {
		t.Fatalf("migration detail = %+v", c)
	}
	if !reflect.DeepEqual(c.ProductsAdded, []string{"websense"}) || len(c.ProductsRemoved) != 0 {
		t.Fatalf("upgrade detail = %+v", c)
	}
	wantCountries := []CountryDelta{
		{Country: "AE", From: 0, To: 1},
		{Country: "QA", From: 0, To: 1},
		{Country: "SA", From: 2, To: 1},
		{Country: "YE", From: 1, To: 0},
	}
	if !reflect.DeepEqual(id.Countries, wantCountries) {
		t.Fatalf("Countries = %+v, want %+v", id.Countries, wantCountries)
	}
	// The comparison fanned through the engine: stage counters recorded.
	snap := stats.Snapshot()
	found := false
	for _, st := range snap.Stages {
		if st.Stage == "diff-installs" && st.Successes == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("engine stats missing diff-installs stage over 4 items: %+v", snap.Stages)
	}

	// Text rendering mentions every moving part.
	text := d.Render()
	for _, want := range []string{"10.0.0.9", "10.0.0.3", "migrated", "AS200 AS-B -> ", "AS300 AS-C", "now also websense", "Per-country"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Render() missing %q:\n%s", want, text)
		}
	}

	// Addresses order numerically, IPv4 before IPv6; an address that
	// does not parse sorts after every one that does, by string, and
	// does not fail the diff.
	from = identifyInput(t, 3, at, []report.InstallationDoc{
		{IP: "2001:db8::10", Products: []string{"bluecoat"}},
		{IP: "not-an-ip", Products: []string{"bluecoat"}},
	})
	to = identifyInput(t, 4, at, []report.InstallationDoc{
		{IP: "10.0.0.10", Products: []string{"bluecoat"}},
		{IP: "10.0.0.9", Products: []string{"bluecoat"}},
		{IP: "2001:db8::9", Products: []string{"bluecoat"}},
		{IP: "999.1.1.1", Products: []string{"bluecoat"}},
		{IP: "2001:db8::10", Products: []string{"bluecoat"}},
		{IP: "1.2.3.4.5", Products: []string{"bluecoat"}},
	})
	d, err = e.Diff(context.Background(), from, to)
	if err != nil {
		t.Fatalf("diff over malformed addresses: %v", err)
	}
	var added []string
	for _, in := range d.Section.(*InstallDiff).Added {
		added = append(added, in.IP)
	}
	if want := []string{"10.0.0.9", "10.0.0.10", "2001:db8::9", "1.2.3.4.5", "999.1.1.1"}; !reflect.DeepEqual(added, want) {
		t.Fatalf("added order = %v, want %v", added, want)
	}
	if removed := d.Section.(*InstallDiff).Removed; len(removed) != 1 || removed[0].IP != "not-an-ip" {
		t.Fatalf("removed = %+v, want the malformed not-an-ip", removed)
	}
}

func TestDiffIdenticalSnapshotsIsEmpty(t *testing.T) {
	insts := []report.InstallationDoc{
		{IP: "10.0.0.1", Products: []string{"bluecoat"}, Country: "SA", ASN: 100},
	}
	from := identifyInput(t, 1, simclock.Epoch, insts)
	to := identifyInput(t, 2, simclock.Epoch.Add(time.Hour), insts)
	d, err := NewDiffEngine().Diff(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	id := d.Section.(*InstallDiff)
	if len(id.Added)+len(id.Removed)+len(id.Changed) != 0 || id.Unchanged != 1 {
		t.Fatalf("identical diff = %+v, want empty", id)
	}
	if len(id.Countries) != 0 || len(id.Products) != 0 {
		t.Fatalf("identical diff has deltas: %+v", id)
	}
}

func TestDiffKindMismatch(t *testing.T) {
	from := identifyInput(t, 1, simclock.Epoch, nil)
	to := from
	to.Meta.Kind = StoreTable4
	if _, err := NewDiffEngine().Diff(context.Background(), from, to); err == nil {
		t.Fatal("cross-kind diff should error")
	}
	from.Meta.Kind, to.Meta.Kind = "bogus", "bogus"
	if _, err := NewDiffEngine().Diff(context.Background(), from, to); err == nil {
		t.Fatal("diff over an unknown kind should error")
	}
}

func table4Input(t testing.TB, seq uint64, rows []report.Table4RowDoc) Input {
	t.Helper()
	body := mustJSON(t, report.Table4Doc{Rows: rows})
	return Input{
		Meta: store.Meta{Seq: seq, ID: store.ContentID(StoreTable4, "cfg", body), Kind: StoreTable4, At: simclock.Epoch},
		Body: body,
	}
}

func TestDiffMatrix(t *testing.T) {
	from := table4Input(t, 1, []report.Table4RowDoc{
		{Product: "netsweeper", Country: "YE", ASN: 100, Blocked: []string{"ANON", "POLR"}},
		{Product: "bluecoat", Country: "SA", ASN: 200, Blocked: []string{"PORN"}},
	})
	to := table4Input(t, 2, []report.Table4RowDoc{
		// YE row drifts: POLR unblocked, GAYL newly blocked. SA row gone,
		// QA row appears.
		{Product: "netsweeper", Country: "YE", ASN: 100, Blocked: []string{"ANON", "GAYL"}},
		{Product: "smartfilter", Country: "QA", ASN: 300, Blocked: []string{"POLR"}},
	})
	d, err := NewDiffEngine().Diff(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	md, ok := d.Section.(*MatrixDiff)
	if !ok {
		t.Fatalf("table4 diff carries the wrong section: %+v", d)
	}
	if len(md.AddedRows) != 1 || md.AddedRows[0].Country != "QA" {
		t.Fatalf("AddedRows = %+v", md.AddedRows)
	}
	if len(md.RemovedRows) != 1 || md.RemovedRows[0].Country != "SA" {
		t.Fatalf("RemovedRows = %+v", md.RemovedRows)
	}
	if len(md.Changed) != 1 {
		t.Fatalf("Changed = %+v", md.Changed)
	}
	ch := md.Changed[0]
	if !reflect.DeepEqual(ch.NewlyBlocked, []string{"GAYL"}) || !reflect.DeepEqual(ch.Unblocked, []string{"POLR"}) {
		t.Fatalf("drift = %+v", ch)
	}
	text := d.Render()
	for _, want := range []string{"Category drift", "GAYL", "POLR", "smartfilter"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Render() missing %q:\n%s", want, text)
		}
	}
}

func TestTimeline(t *testing.T) {
	mk := func(seq uint64, day int, ccs ...string) Input {
		var insts []report.InstallationDoc
		for i, cc := range ccs {
			insts = append(insts, report.InstallationDoc{IP: fmt.Sprintf("10.0.%d.%d", seq, i), Country: cc})
		}
		return identifyInput(t, seq, simclock.Epoch.Add(time.Duration(day)*24*time.Hour), insts)
	}
	tl, err := NewDiffEngine().Timeline(context.Background(), []Input{
		mk(1, 0, "SA", "SA", "YE"),
		mk(2, 7, "SA", "YE", "QA"),
	})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(tl.Countries, []string{"QA", "SA", "YE"}) {
		t.Fatalf("Countries = %v", tl.Countries)
	}
	if tl.Points[0].Total != 3 || tl.Points[0].ByCountry["SA"] != 2 {
		t.Fatalf("point 0 = %+v", tl.Points[0])
	}
	if tl.Points[1].ByCountry["QA"] != 1 {
		t.Fatalf("point 1 = %+v", tl.Points[1])
	}
	text := tl.Render()
	for _, want := range []string{"Seq", "2012-09-01", "2012-09-08", "QA"} {
		if !strings.Contains(text, want) {
			t.Fatalf("timeline Render() missing %q:\n%s", want, text)
		}
	}
	// Non-identify kinds count their own unit: table4 counts matrix rows
	// per country.
	t4 := table4Input(t, 3, []report.Table4RowDoc{
		{Product: "netsweeper", Country: "YE", ASN: 100, Blocked: []string{"ANON"}},
		{Product: "bluecoat", Country: "SA", ASN: 200, Blocked: []string{"PORN"}},
		{Product: "websense", Country: "YE", ASN: 300, Blocked: []string{"POLR"}},
	})
	tl4, err := NewDiffEngine().Timeline(context.Background(), []Input{t4})
	if err != nil {
		t.Fatal(err)
	}
	if tl4.Points[0].Total != 3 || tl4.Points[0].ByCountry["YE"] != 2 {
		t.Fatalf("table4 point = %+v, want 3 rows with YE=2", tl4.Points[0])
	}

	// Unknown kinds still error.
	bad := Input{Meta: store.Meta{Seq: 4, Kind: "bogus"}, Body: []byte("{}")}
	if _, err := NewDiffEngine().Timeline(context.Background(), []Input{bad}); err == nil {
		t.Fatal("timeline over unknown kind should error")
	}
}

// benchInstalls builds a synthetic installation set that drifts with i,
// exercising added/removed/changed paths.
func benchInstalls(i, n int) []report.InstallationDoc {
	insts := make([]report.InstallationDoc, 0, n)
	for j := 0; j < n; j++ {
		asn := 100 + j%7
		if (i+j)%13 == 0 {
			asn += 1000 // periodic migrations
		}
		insts = append(insts, report.InstallationDoc{
			IP:       fmt.Sprintf("10.%d.%d.%d", (i+j)%3, j/250, j%250),
			Hostname: fmt.Sprintf("h%d.example", j),
			Products: []string{[]string{"bluecoat", "netsweeper", "websense"}[j%3]},
			Country:  []string{"SA", "YE", "QA", "AE"}[j%4],
			ASN:      asn,
			ASName:   fmt.Sprintf("AS-%d", asn),
		})
	}
	return insts
}

// BenchmarkAppend1000Diff is the acceptance-criteria benchmark: append
// 1000 identify snapshots to a disk-backed store (fsync disabled so the
// loop measures store+hashing work, not the disk), then diff the first
// against the last.
func BenchmarkAppend1000Diff(b *testing.B) {
	const snaps, installs = 1000, 100
	bodies := make([]json.RawMessage, snaps)
	for i := range bodies {
		bodies[i] = mustJSON(b, report.IdentifyDoc{
			ProductCountries: map[string][]string{},
			ValidatedCount:   installs,
			Installations:    benchInstalls(i, installs),
		})
	}
	e := NewDiffEngine()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s, err := store.Open(b.TempDir(), store.WithoutSync())
		if err != nil {
			b.Fatal(err)
		}
		var first, last Input
		for i, body := range bodies {
			m, err := s.Append(store.Snapshot{
				Kind:   StoreIdentify,
				At:     simclock.Epoch.Add(time.Duration(i) * 24 * time.Hour),
				Config: "benchcfg",
				Body:   body,
			})
			if err != nil {
				b.Fatal(err)
			}
			in := Input{Meta: m, Body: body}
			if i == 0 {
				first = in
			}
			last = in
		}
		d, err := e.Diff(context.Background(), first, last)
		if err != nil {
			b.Fatal(err)
		}
		if d.Section == nil {
			b.Fatal("empty diff")
		}
		s.Close()
	}
}

func mechanismsInput(t testing.TB, seq uint64, isps []report.MechanismISPDoc) Input {
	t.Helper()
	body := mustJSON(t, report.MechanismsDoc{Mechanisms: isps})
	return Input{
		Meta: store.Meta{Seq: seq, ID: store.ContentID(StoreMechanisms, "cfg", body), Kind: StoreMechanisms, At: simclock.Epoch},
		Body: body,
	}
}

func TestDiffMechanisms(t *testing.T) {
	from := mechanismsInput(t, 1, []report.MechanismISPDoc{
		{ISP: "Rostelecom", Country: "RU", ASN: 12389, Tested: 3, Censored: 3, Findings: []report.MechanismFindingDoc{
			{Mechanism: "dns", Product: "McAfee SmartFilter", Evidence: "nxdomain injection"},
		}},
		{ISP: "TOT", Country: "TH", ASN: 23969, Tested: 3, Censored: 3, Findings: []report.MechanismFindingDoc{
			{Mechanism: "rst", Product: "Blue Coat", Evidence: "rst ttl=128 win=16384 bidirectional"},
		}},
	})
	to := mechanismsInput(t, 2, []report.MechanismISPDoc{
		// Rostelecom migrates: DNS poisoning replaced by SNI filtering and
		// the attributed product changes. TOT drops out; VNPT appears.
		{ISP: "Rostelecom", Country: "RU", ASN: 12389, Tested: 3, Censored: 2, Findings: []report.MechanismFindingDoc{
			{Mechanism: "sni", Product: "Netsweeper", Evidence: "sni reset ttl=64 win=4096; esni-style omission evades"},
		}},
		{ISP: "VNPT", Country: "VN", ASN: 45899, Tested: 3, Censored: 3, Findings: []report.MechanismFindingDoc{
			{Mechanism: "sni", Product: "Blue Coat", Evidence: "sni silent drop; blocks without sni"},
		}},
	})
	d, err := NewDiffEngine().Diff(context.Background(), from, to)
	if err != nil {
		t.Fatal(err)
	}
	md, ok := d.Section.(*MechanismsDiff)
	if !ok {
		t.Fatalf("mechanisms diff carries the wrong section: %+v", d)
	}
	if md.FromISPs != 2 || md.ToISPs != 2 {
		t.Fatalf("ISP counts = %d -> %d, want 2 -> 2", md.FromISPs, md.ToISPs)
	}
	if len(md.AddedISPs) != 1 || md.AddedISPs[0].ISP != "VNPT" {
		t.Fatalf("AddedISPs = %+v", md.AddedISPs)
	}
	if len(md.RemovedISPs) != 1 || md.RemovedISPs[0].ISP != "TOT" {
		t.Fatalf("RemovedISPs = %+v", md.RemovedISPs)
	}
	if len(md.Migrations) != 1 {
		t.Fatalf("Migrations = %+v", md.Migrations)
	}
	m := md.Migrations[0]
	if m.ISP != "Rostelecom" ||
		!reflect.DeepEqual(m.MechanismsAdded, []string{"sni"}) ||
		!reflect.DeepEqual(m.MechanismsRemoved, []string{"dns"}) ||
		!reflect.DeepEqual(m.ProductsAdded, []string{"Netsweeper"}) ||
		!reflect.DeepEqual(m.ProductsRemoved, []string{"McAfee SmartFilter"}) ||
		m.CensoredFrom != 3 || m.CensoredTo != 2 {
		t.Fatalf("migration = %+v", m)
	}
	text := d.Render()
	for _, want := range []string{"Mechanism migrations", "Rostelecom", "+sni -dns", "Newly surveyed", "VNPT", "No longer surveyed", "TOT", "3 -> 2"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Render() missing %q:\n%s", want, text)
		}
	}
}

func TestDiffMechanismsIdenticalIsEmpty(t *testing.T) {
	isps := []report.MechanismISPDoc{
		{ISP: "TOT", Country: "TH", ASN: 23969, Tested: 3, Censored: 3, Findings: []report.MechanismFindingDoc{
			{Mechanism: "rst", Product: "Blue Coat", Evidence: "rst ttl=128 win=16384 bidirectional"},
		}},
	}
	d, err := NewDiffEngine().Diff(context.Background(), mechanismsInput(t, 1, isps), mechanismsInput(t, 2, isps))
	if err != nil {
		t.Fatal(err)
	}
	md, ok := d.Section.(*MechanismsDiff)
	if !ok || len(md.AddedISPs) != 0 || len(md.RemovedISPs) != 0 || len(md.Migrations) != 0 {
		t.Fatalf("identical snapshots should produce an empty diff: %+v", md)
	}
}
