package longitudinal

import (
	"fmt"
	"strings"
	"time"

	"filtermap/internal/report"
)

// This file renders diffs and timelines as text, in the same ASCII-table
// style as the paper's tables. The diff rendering is the `fmhist diff`
// output and the golden-file surface; JSON consumers (fmserve's GET
// /v1/diff) marshal the Diff struct directly.

func (r SnapRef) label() string {
	return fmt.Sprintf("seq %d  id %s  at %s", r.Seq, r.ID, r.At.UTC().Format(time.RFC3339))
}

// Render renders the diff as text.
func (d *Diff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Longitudinal diff (%s)\n", d.From.Kind)
	fmt.Fprintf(&b, "  from: %s\n", d.From.label())
	fmt.Fprintf(&b, "  to:   %s\n", d.To.label())
	if d.Installs != nil {
		b.WriteByte('\n')
		d.Installs.render(&b)
	}
	if d.Matrix != nil {
		b.WriteByte('\n')
		d.Matrix.render(&b)
	}
	if d.Discovery != nil {
		b.WriteByte('\n')
		d.Discovery.render(&b)
	}
	if d.Mechanisms != nil {
		b.WriteByte('\n')
		d.Mechanisms.render(&b)
	}
	return b.String()
}

func instCell(in report.InstallationDoc) []string {
	host := in.Hostname
	if host == "" {
		host = "-"
	}
	return []string{
		in.IP,
		strings.Join(in.Products, ","),
		in.Country,
		fmt.Sprintf("AS%d %s", in.ASN, in.ASName),
		host,
	}
}

func (d *InstallDiff) render(b *strings.Builder) {
	fmt.Fprintf(b, "Installations: %d -> %d (%d added, %d removed, %d changed, %d unchanged)\n",
		d.FromTotal, d.ToTotal, len(d.Added), len(d.Removed), len(d.Changed), d.Unchanged)

	if len(d.Added) > 0 {
		t := &report.Table{Title: "\nAdded installations:", Headers: []string{"IP", "Products", "CC", "AS", "Hostname"}}
		for _, in := range d.Added {
			t.AddRow(instCell(in)...)
		}
		b.WriteString(t.String())
	}
	if len(d.Removed) > 0 {
		t := &report.Table{Title: "\nRemoved installations:", Headers: []string{"IP", "Products", "CC", "AS", "Hostname"}}
		for _, in := range d.Removed {
			t.AddRow(instCell(in)...)
		}
		b.WriteString(t.String())
	}
	if len(d.Changed) > 0 {
		b.WriteString("\nChanged installations:\n")
		for _, c := range d.Changed {
			var parts []string
			if c.Migrated {
				from := fmt.Sprintf("AS%d %s", c.FromASN, c.FromASName)
				to := fmt.Sprintf("AS%d %s", c.ToASN, c.ToASName)
				if c.FromCountry != c.ToCountry {
					from = c.FromCountry + " " + from
					to = c.ToCountry + " " + to
				}
				parts = append(parts, fmt.Sprintf("migrated %s -> %s", from, to))
			}
			if len(c.ProductsAdded) > 0 {
				parts = append(parts, "now also "+strings.Join(c.ProductsAdded, ","))
			}
			if len(c.ProductsRemoved) > 0 {
				parts = append(parts, "no longer "+strings.Join(c.ProductsRemoved, ","))
			}
			if c.FromHostname != c.ToHostname && (c.FromHostname != "" || c.ToHostname != "") {
				parts = append(parts, fmt.Sprintf("hostname %s -> %s", orDash(c.FromHostname), orDash(c.ToHostname)))
			}
			fmt.Fprintf(b, "  %-15s %s\n", c.IP, strings.Join(parts, "; "))
		}
	}
	if len(d.Countries) > 0 {
		t := &report.Table{Title: "\nPer-country installation counts:", Headers: []string{"CC", "From", "To", "Delta"}}
		for _, cd := range d.Countries {
			t.AddRow(cd.Country, fmt.Sprint(cd.From), fmt.Sprint(cd.To), signed(cd.To-cd.From))
		}
		b.WriteString(t.String())
	}
	if len(d.Products) > 0 {
		t := &report.Table{Title: "\nPer-product installation counts:", Headers: []string{"Product", "From", "To", "Delta"}}
		for _, pd := range d.Products {
			t.AddRow(pd.Product, fmt.Sprint(pd.From), fmt.Sprint(pd.To), signed(pd.To-pd.From))
		}
		b.WriteString(t.String())
	}
}

func (d *MatrixDiff) render(b *strings.Builder) {
	fmt.Fprintf(b, "Characterization matrix: %d -> %d rows (%d added, %d removed, %d changed)\n",
		d.FromRows, d.ToRows, len(d.AddedRows), len(d.RemovedRows), len(d.Changed))
	rowCell := func(r report.Table4RowDoc) []string {
		blocked := strings.Join(r.Blocked, ",")
		if blocked == "" {
			blocked = "-"
		}
		return []string{r.Product, r.Country, fmt.Sprintf("AS%d", r.ASN), blocked}
	}
	if len(d.AddedRows) > 0 {
		t := &report.Table{Title: "\nAdded rows:", Headers: []string{"Product", "CC", "AS", "Blocked"}}
		for _, r := range d.AddedRows {
			t.AddRow(rowCell(r)...)
		}
		b.WriteString(t.String())
	}
	if len(d.RemovedRows) > 0 {
		t := &report.Table{Title: "\nRemoved rows:", Headers: []string{"Product", "CC", "AS", "Blocked"}}
		for _, r := range d.RemovedRows {
			t.AddRow(rowCell(r)...)
		}
		b.WriteString(t.String())
	}
	if len(d.Changed) > 0 {
		t := &report.Table{Title: "\nCategory drift:", Headers: []string{"Product", "CC", "AS", "Newly blocked", "Unblocked"}}
		for _, c := range d.Changed {
			t.AddRow(c.Product, c.Country, fmt.Sprintf("AS%d", c.ASN),
				orDash(strings.Join(c.NewlyBlocked, ",")), orDash(strings.Join(c.Unblocked, ",")))
		}
		b.WriteString(t.String())
	}
}

// Render renders the timeline as a per-country count table, one row per
// snapshot.
func (tl *Timeline) Render() string {
	t := &report.Table{
		Title:   "Installations over time:",
		Headers: append([]string{"Seq", "At", "Total"}, tl.Countries...),
	}
	for _, pt := range tl.Points {
		row := []string{
			fmt.Sprint(pt.Ref.Seq),
			pt.Ref.At.UTC().Format("2006-01-02"),
			fmt.Sprint(pt.Total),
		}
		for _, cc := range tl.Countries {
			row = append(row, fmt.Sprint(pt.ByCountry[cc]))
		}
		t.AddRow(row...)
	}
	return t.String()
}

func signed(n int) string {
	if n > 0 {
		return fmt.Sprintf("+%d", n)
	}
	return fmt.Sprint(n)
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
