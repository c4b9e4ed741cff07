// Package report derives the paper's tables and figure from raw pipeline
// results, and renders them as text in the rows and columns the paper
// prints. Each artifact is derived once, into a document with stable
// JSON field names (json.go, discovery.go, mechanisms.go): the value
// fmserve serves, the snapshot store keeps and the CLIs' -json flags
// print. Each text renderer reads that document and nothing else, so the
// goldens that pin the text also pin that a served or stored document
// carries everything its table prints. Three renderers have no document
// and read their inputs: Table5 (prose rows), Table2WithMechanisms (its
// mechanism column) and Table4Mechanisms (per-probe detections).
package report

import (
	"fmt"
	"maps"
	"slices"
	"strconv"
	"strings"
)

// Table renders an ASCII table with a header row.
type Table struct {
	Title   string
	Headers []string
	Rows    [][]string
}

// AddRow appends a row.
func (t *Table) AddRow(cells ...string) {
	t.Rows = append(t.Rows, cells)
}

// String renders the table.
func (t *Table) String() string {
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, row := range t.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var b strings.Builder
	if t.Title != "" {
		b.WriteString(t.Title)
		b.WriteByte('\n')
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString(" | ")
			}
			fmt.Fprintf(&b, "%-*s", widths[i], c)
		}
		b.WriteByte('\n')
	}
	line(t.Headers)
	sep := make([]string, len(t.Headers))
	for i := range sep {
		sep[i] = strings.Repeat("-", widths[i])
	}
	line(sep)
	for _, row := range t.Rows {
		line(row)
	}
	return b.String()
}

// degradedFooter renders the DEGRADED section a table ends with when
// any of its runs was partial: a headline counting the lines, then the
// lines. It is empty when nothing was degraded.
func degradedFooter(headline string, lines []string) string {
	if len(lines) == 0 {
		return ""
	}
	return fmt.Sprintf("DEGRADED: %d %s:\n%s\n", len(lines), headline, strings.Join(lines, "\n"))
}

// Table1 renders the product inventory.
func Table1(doc Table1Doc) string {
	t := &Table{
		Title:   "Table 1: Summary of products considered.",
		Headers: []string{"Company", "Headquarters", "Product description", "Previously observed"},
	}
	for _, r := range doc.Rows {
		t.AddRow(r.Company, r.Headquarters, r.ProductDescription, r.PreviouslyObserved)
	}
	return t.String()
}

// Table2 renders the identification keyword/signature summary.
func Table2(doc Table2Doc) string {
	t := &Table{
		Title:   "Table 2: Identification keywords and validation signatures.",
		Headers: []string{"Product", "Shodan keywords", "WhatWeb signature"},
	}
	for _, r := range doc.Products {
		t.AddRow(r.Product, strings.Join(r.Keywords, ", "), strings.Join(r.Signatures, "; "))
	}
	return t.String()
}

// Table3 renders the confirmation case studies. Campaigns that ran on
// partial evidence (failed submissions, degraded measurements) get a
// degraded footer; with no degradation there is none.
func Table3(doc Table3Doc) string {
	t := &Table{
		Title:   "Table 3: Summary of URL filter case studies.",
		Headers: []string{"Product", "Country", "ISP", "Date", "Sites submitted", "Category", "Sites blocked", "Confirmed?"},
	}
	var degraded []string
	for _, r := range doc.Rows {
		confirmed := "no"
		if r.Confirmed {
			confirmed = "YES"
		}
		t.AddRow(
			r.Product,
			r.Country,
			fmt.Sprintf("%s (AS %d)", r.ISP, r.ASN),
			r.Date,
			fmt.Sprintf("%d/%d", r.Submitted, r.Domains),
			r.Category,
			fmt.Sprintf("%d/%d", r.Blocked, r.Submitted),
			confirmed,
		)
		if r.Degraded {
			degraded = append(degraded, fmt.Sprintf("  %s/%s (AS %d): %d submit error(s), %d degraded measurement(s)",
				r.Product, r.ISP, r.ASN, len(r.SubmitErrors), len(r.MeasurementErrors)))
		}
	}
	return t.String() + degradedFooter("campaign(s) ran on partial evidence", degraded)
}

// Table4 renders the blocked-content matrix, then a degraded footer when
// any characterization run in doc.Reports carried transport-degraded
// measurements.
func Table4(doc Table4Doc) string {
	headers := []string{"Product", "Where"}
	for _, c := range doc.Columns {
		headers = append(headers, c.Name)
	}
	t := &Table{
		Title:   "Table 4: Summary of Web content blocked by URL filtering products.",
		Headers: headers,
	}
	for _, row := range doc.Rows {
		cells := []string{row.Product, fmt.Sprintf("%s (AS %d)", row.Country, row.ASN)}
		for _, c := range doc.Columns {
			cells = append(cells, mark(slices.Contains(row.Blocked, c.Code)))
		}
		t.AddRow(cells...)
	}
	var degraded []string
	for _, rep := range doc.Reports {
		if rep.Degraded {
			degraded = append(degraded, fmt.Sprintf("  %s %s (AS %d): %d degraded measurement(s)",
				rep.Country, rep.ISP, rep.ASN, len(rep.Errors)))
		}
	}
	return t.String() + degradedFooter("characterization run(s) had partial measurements", degraded)
}

// mark renders one matrix cell: "x" for a blocked category.
func mark(blocked bool) string {
	if blocked {
		return "x"
	}
	return ""
}

// Table5Row is one methods/limitations row.
type Table5Row struct {
	Step       string
	Technique  string
	Limitation string
	Evasion    string
	// Outcome summarizes what the evasion benchmark measured.
	Outcome string
}

// Table5 renders the limitations/evasion summary with measured outcomes.
func Table5(rows []Table5Row) string {
	t := &Table{
		Title:   "Table 5: Methods, limitations, evasion tactics — with measured outcomes.",
		Headers: []string{"Step", "Technique", "Limitation", "Evasionary tactic", "Measured outcome"},
	}
	for _, r := range rows {
		t.AddRow(r.Step, r.Technique, r.Limitation, r.Evasion, r.Outcome)
	}
	return t.String()
}

// Figure1 renders the product -> countries map as text.
func Figure1(doc IdentifyDoc) string {
	var b strings.Builder
	b.WriteString("Figure 1: Locations of URL filter installations\n")
	for _, p := range slices.Sorted(maps.Keys(doc.ProductCountries)) {
		fmt.Fprintf(&b, "  %-20s %s\n", p+":", strings.Join(doc.ProductCountries[p], " "))
	}
	fmt.Fprintf(&b, "  (%d candidate IPs from keyword search, %d validated; false-positive rate %.0f%%)\n",
		doc.CandidateCount, doc.ValidatedCount, doc.FalsePositiveRate*100)
	if doc.Degraded {
		fmt.Fprintf(&b, "  DEGRADED: partial coverage (%d stage error(s), %d query error(s))\n",
			len(doc.StageErrors), len(doc.QueryErrors))
		for _, e := range doc.StageErrors {
			fmt.Fprintf(&b, "    %s %s: %s\n", e.Stage, e.Target, e.Error)
		}
		for _, qe := range doc.QueryErrors {
			fmt.Fprintf(&b, "    query %s %q: %s\n", qe.Product, qe.Query, qe.Error)
		}
	}
	return b.String()
}

// Installations renders the per-installation detail beneath Figure 1.
func Installations(doc IdentifyDoc) string {
	t := &Table{
		Title:   "Validated installations",
		Headers: []string{"IP", "Hostname", "Products", "Country", "ASN", "AS name"},
	}
	for _, inst := range doc.Installations {
		t.AddRow(inst.IP, inst.Hostname, strings.Join(inst.Products, ", "), inst.Country, strconv.Itoa(inst.ASN), inst.ASName)
	}
	return t.String()
}
