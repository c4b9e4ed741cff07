// Package characterize implements §5: determining what kinds of content a
// confirmed URL-filter deployment blocks.
//
// Two lists run through the dual-vantage measurement client — the
// constant "global list" and the country-specific "local list" — each URL
// tagged with one of 40 research categories under four themes. Blocked
// results are attributed to a product via block-page classification, and
// the blocked research categories per (product, country, AS) roll up into
// the Table 4 matrix.
package characterize

import (
	"context"
	"sort"

	"filtermap/internal/measurement"
	"filtermap/internal/urllist"
)

// Run describes one country's characterization pass.
type Run struct {
	// Country is the ISO code; ISP and ASN locate the deployment.
	Country string
	ISP     string
	ASN     int
	// Global and Local are the testing lists (§5).
	Global urllist.List
	Local  urllist.List
	// Extra holds additional lists to measure after the curated pair —
	// e.g. the synthetic "discovered" list a discovery crawl produced.
	// Blocked entries keep their list name in FromList.
	Extra []urllist.List
	// Client is the dual-vantage measurement client for this country.
	Client *measurement.Client
}

// BlockedEntry is one blocked list URL with its attribution.
type BlockedEntry struct {
	Entry    urllist.Entry
	Product  string
	Pattern  string
	FromList string
}

// Report is the outcome of one characterization run.
type Report struct {
	Country string
	ISP     string
	ASN     int

	// Results holds every raw measurement (global list then local list).
	Results []measurement.Result
	// Blocked holds the blocked entries with product attribution.
	Blocked []BlockedEntry
	// Errors lists transport-degraded measurements ("URL: detail"), in
	// result order. Verdicts for these URLs rest on incomplete evidence.
	Errors []string
	// Degraded reports that at least one measurement was degraded.
	Degraded bool

	// blockedCats maps product -> set of blocked research category codes.
	blockedCats map[string]map[string]bool
}

// Products returns the products observed blocking, sorted.
func (r *Report) Products() []string {
	out := make([]string, 0, len(r.blockedCats))
	for p := range r.blockedCats {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// Blocks reports whether product blocked the given research category.
func (r *Report) Blocks(product, categoryCode string) bool {
	return r.blockedCats[product][categoryCode]
}

// Characterize runs both lists and builds the report.
func Characterize(ctx context.Context, run Run) *Report {
	rep := &Report{
		Country:     run.Country,
		ISP:         run.ISP,
		ASN:         run.ASN,
		blockedCats: make(map[string]map[string]bool),
	}
	lists := append([]urllist.List{run.Global, run.Local}, run.Extra...)
	for _, list := range lists {
		byURL := make(map[string]urllist.Entry, len(list.Entries))
		for _, e := range list.Entries {
			byURL[e.URL] = e
		}
		results := run.Client.TestList(ctx, list.URLs())
		rep.Results = append(rep.Results, results...)
		for _, res := range results {
			if detail, degraded := res.Degraded(); degraded {
				rep.Errors = append(rep.Errors, res.URL+": "+detail)
				rep.Degraded = true
			}
			if res.Verdict != measurement.Blocked || !res.Matched {
				continue
			}
			e := byURL[res.URL]
			rep.Blocked = append(rep.Blocked, BlockedEntry{
				Entry:    e,
				Product:  res.BlockMatch.Product,
				Pattern:  res.BlockMatch.Pattern,
				FromList: list.Name,
			})
			if rep.blockedCats[res.BlockMatch.Product] == nil {
				rep.blockedCats[res.BlockMatch.Product] = make(map[string]bool)
			}
			rep.blockedCats[res.BlockMatch.Product][e.Category] = true
		}
	}
	return rep
}

// Table4Columns lists the six research categories Table 4 reports, in
// column order.
func Table4Columns() []string {
	return []string{
		urllist.CatMediaFreedom,
		urllist.CatHumanRights,
		urllist.CatPoliticalReform,
		urllist.CatLGBT,
		urllist.CatReligiousCriticism,
		urllist.CatMinorityRights,
	}
}

// MatrixRow is one Table 4 row: a (product, location) pair and which of
// the six columns it blocks.
type MatrixRow struct {
	Product string
	Country string
	ASN     int
	Blocked map[string]bool // keyed by Table4Columns codes
}

// Matrix assembles Table 4 rows from several characterization reports.
func Matrix(reports []*Report) []MatrixRow {
	var rows []MatrixRow
	for _, rep := range reports {
		for _, product := range rep.Products() {
			row := MatrixRow{
				Product: product,
				Country: rep.Country,
				ASN:     rep.ASN,
				Blocked: make(map[string]bool),
			}
			for _, col := range Table4Columns() {
				row.Blocked[col] = rep.Blocks(product, col)
			}
			rows = append(rows, row)
		}
	}
	sort.Slice(rows, func(i, j int) bool {
		if rows[i].Product != rows[j].Product {
			return rows[i].Product < rows[j].Product
		}
		return rows[i].ASN < rows[j].ASN
	})
	return rows
}
