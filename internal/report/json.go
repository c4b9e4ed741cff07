package report

import (
	"sort"

	"filtermap/internal/characterize"
	"filtermap/internal/confirm"
	"filtermap/internal/engine"
	"filtermap/internal/identify"
	"filtermap/internal/urllist"
)

// This file defines the machine-readable counterparts of the text
// renderers: structured documents with stable JSON field names, shared by
// the fmserve HTTP API and the CLIs' -json flags. The text tables remain
// the golden-file surface; these documents are the service surface.

// Table1Doc is the JSON rendering of Table 1.
type Table1Doc struct {
	Rows []Table1RowDoc `json:"rows"`
}

// Table1RowDoc is one product-inventory row.
type Table1RowDoc struct {
	Company            string `json:"company"`
	Headquarters       string `json:"headquarters"`
	ProductDescription string `json:"product_description"`
	PreviouslyObserved string `json:"previously_observed"`
}

// Table1JSON builds the Table 1 document from the default inventory.
func Table1JSON() Table1Doc {
	var doc Table1Doc
	for _, r := range DefaultProductInventory() {
		doc.Rows = append(doc.Rows, Table1RowDoc{
			Company:            r.Company,
			Headquarters:       r.Headquarters,
			ProductDescription: r.ProductDescription,
			PreviouslyObserved: r.PreviouslyObserved,
		})
	}
	return doc
}

// Table2Doc is the JSON rendering of Table 2.
type Table2Doc struct {
	Products []Table2RowDoc `json:"products"`
}

// Table2RowDoc is one product's keywords and signatures.
type Table2RowDoc struct {
	Product    string   `json:"product"`
	Keywords   []string `json:"keywords"`
	Signatures []string `json:"signatures"`
}

// Table2JSON builds the Table 2 document from keyword and signature
// descriptions (same inputs as the text renderer).
func Table2JSON(keywords map[string][]string, signatures map[string][]string) Table2Doc {
	products := make([]string, 0, len(keywords))
	for p := range keywords {
		products = append(products, p)
	}
	sort.Strings(products)
	var doc Table2Doc
	for _, p := range products {
		doc.Products = append(doc.Products, Table2RowDoc{
			Product:    p,
			Keywords:   keywords[p],
			Signatures: signatures[p],
		})
	}
	return doc
}

// IdentifyDoc is the JSON rendering of the §3 report (Figure 1 plus the
// per-installation detail).
type IdentifyDoc struct {
	// ProductCountries maps product name -> sorted country codes (the
	// Figure 1 content).
	ProductCountries  map[string][]string `json:"product_countries"`
	CandidateCount    int                 `json:"candidate_count"`
	ValidatedCount    int                 `json:"validated_count"`
	FalsePositiveRate float64             `json:"false_positive_rate"`
	Installations     []InstallationDoc   `json:"installations"`
	QueryErrors       []QueryErrorDoc     `json:"query_errors,omitempty"`
	// StageErrors lists stage-level failures the run survived; Degraded
	// marks the report as partial (any stage or query error).
	StageErrors []StageErrorDoc `json:"stage_errors,omitempty"`
	Degraded    bool            `json:"degraded,omitempty"`
	// Stats optionally carries the engine's per-stage execution snapshot
	// (machine-readable -stats / ?stats=1; omitted unless requested).
	Stats *engine.Snapshot `json:"stats,omitempty"`
}

// InstallationDoc is one validated installation.
type InstallationDoc struct {
	IP       string   `json:"ip"`
	Hostname string   `json:"hostname,omitempty"`
	Products []string `json:"products"`
	Country  string   `json:"country,omitempty"`
	ASN      int      `json:"asn,omitempty"`
	ASName   string   `json:"as_name,omitempty"`
}

// QueryErrorDoc is one failed keyword query from the fan-out.
type QueryErrorDoc struct {
	Product string `json:"product"`
	Query   string `json:"query"`
	Error   string `json:"error"`
}

// StageErrorDoc is one survived pipeline-stage failure.
type StageErrorDoc struct {
	Stage  string `json:"stage"`
	Target string `json:"target"`
	Error  string `json:"error"`
}

// IdentifyJSON builds the identification document from a §3 report.
func IdentifyJSON(rep *identify.Report) IdentifyDoc {
	doc := IdentifyDoc{
		ProductCountries:  rep.ProductCountries(),
		CandidateCount:    rep.CandidateCount,
		ValidatedCount:    rep.ValidatedCount,
		FalsePositiveRate: rep.FalsePositiveRate(),
	}
	for _, inst := range rep.Installations {
		doc.Installations = append(doc.Installations, InstallationDoc{
			IP:       inst.Addr.String(),
			Hostname: inst.Hostname,
			Products: inst.Products,
			Country:  inst.Country,
			ASN:      inst.ASN,
			ASName:   inst.ASName,
		})
	}
	for _, qe := range rep.QueryErrors {
		doc.QueryErrors = append(doc.QueryErrors, QueryErrorDoc{
			Product: qe.Product,
			Query:   qe.Query,
			Error:   qe.Err.Error(),
		})
	}
	for _, se := range rep.Errors {
		doc.StageErrors = append(doc.StageErrors, StageErrorDoc{
			Stage:  se.Stage,
			Target: se.Target,
			Error:  se.Err,
		})
	}
	doc.Degraded = rep.Degraded
	return doc
}

// Table3Doc is the JSON rendering of the confirmation case studies.
type Table3Doc struct {
	Rows []Table3RowDoc `json:"rows"`
	// Degraded reports that at least one campaign ran on partial evidence.
	Degraded bool `json:"degraded,omitempty"`
	// Stats optionally carries the engine's per-stage execution snapshot.
	Stats *engine.Snapshot `json:"stats,omitempty"`
}

// Table3RowDoc is one case study outcome.
type Table3RowDoc struct {
	Product  string `json:"product"`
	Country  string `json:"country"`
	ISP      string `json:"isp"`
	ASN      int    `json:"asn"`
	Date     string `json:"date"`
	Category string `json:"category"`
	// Submitted and Domains render Table 3's "sites submitted" cell
	// (submitted/domains); Blocked counts submitted sites that turned
	// blocked in at least one re-test round.
	Submitted       int  `json:"submitted"`
	Domains         int  `json:"domains"`
	Blocked         int  `json:"blocked"`
	BlockedControls int  `json:"blocked_controls"`
	PreTest         bool `json:"pre_test"`
	PreTestClean    bool `json:"pre_test_clean"`
	Confirmed       bool `json:"confirmed"`
	// SubmitErrors and MeasurementErrors enumerate the campaign's partial
	// evidence; Degraded marks it.
	SubmitErrors      []string `json:"submit_errors,omitempty"`
	MeasurementErrors []string `json:"measurement_errors,omitempty"`
	Degraded          bool     `json:"degraded,omitempty"`
}

// Table3JSON builds the confirmation document from campaign outcomes.
func Table3JSON(outcomes []*confirm.Outcome) Table3Doc {
	var doc Table3Doc
	for _, o := range outcomes {
		c := o.Campaign
		row := Table3RowDoc{
			Product:           c.Product,
			Country:           c.Country,
			ISP:               c.ISP,
			ASN:               c.ASN,
			Date:              c.Date,
			Category:          c.CategoryLabel,
			Submitted:         len(o.Submitted),
			Domains:           len(o.Submitted) + len(o.Controls),
			Blocked:           o.BlockedSubmitted,
			BlockedControls:   o.BlockedControls,
			PreTest:           c.PreTest,
			PreTestClean:      o.PreTestClean,
			Confirmed:         o.Confirmed,
			MeasurementErrors: o.MeasurementErrors(),
			Degraded:          o.Degraded(),
		}
		for _, e := range o.SubmitErrors {
			row.SubmitErrors = append(row.SubmitErrors, e.Error())
		}
		if row.Degraded {
			doc.Degraded = true
		}
		doc.Rows = append(doc.Rows, row)
	}
	return doc
}

// Table4Doc is the JSON rendering of the blocked-content matrix plus the
// per-country blocked-URL detail behind it.
type Table4Doc struct {
	// Columns lists the six protected-speech research category codes in
	// Table 4 column order.
	Columns []Table4ColumnDoc  `json:"columns"`
	Rows    []Table4RowDoc     `json:"rows"`
	Reports []CountryReportDoc `json:"reports"`
	// Degraded reports that at least one run had partial measurements.
	Degraded bool `json:"degraded,omitempty"`
	// Stats optionally carries the engine's per-stage execution snapshot.
	Stats *engine.Snapshot `json:"stats,omitempty"`
}

// Table4ColumnDoc names one matrix column.
type Table4ColumnDoc struct {
	Code string `json:"code"`
	Name string `json:"name"`
}

// Table4RowDoc is one (product, location) matrix row.
type Table4RowDoc struct {
	Product string `json:"product"`
	Country string `json:"country"`
	ASN     int    `json:"asn"`
	// Blocked lists the blocked column codes, sorted.
	Blocked []string `json:"blocked"`
}

// CountryReportDoc is one characterization run's blocked detail.
type CountryReportDoc struct {
	Country string          `json:"country"`
	ISP     string          `json:"isp"`
	ASN     int             `json:"asn"`
	Blocked []BlockedURLDoc `json:"blocked"`
	// Errors lists transport-degraded measurements ("URL: detail");
	// Degraded marks the run as partial.
	Errors   []string `json:"errors,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`
}

// BlockedURLDoc is one blocked list URL with its attribution.
type BlockedURLDoc struct {
	URL      string `json:"url"`
	Category string `json:"category"`
	Product  string `json:"product"`
	Pattern  string `json:"pattern"`
	FromList string `json:"from_list"`
}

// Table4JSON builds the characterization document from §5 reports.
func Table4JSON(reports []*characterize.Report) Table4Doc {
	var doc Table4Doc
	for _, code := range characterize.Table4Columns() {
		col := Table4ColumnDoc{Code: code, Name: code}
		if cat, ok := urllist.CategoryByCode(code); ok {
			col.Name = cat.Name
		}
		doc.Columns = append(doc.Columns, col)
	}
	for _, row := range characterize.Matrix(reports) {
		var blocked []string
		for _, code := range characterize.Table4Columns() {
			if row.Blocked[code] {
				blocked = append(blocked, code)
			}
		}
		doc.Rows = append(doc.Rows, Table4RowDoc{
			Product: row.Product,
			Country: row.Country,
			ASN:     row.ASN,
			Blocked: blocked,
		})
	}
	for _, rep := range reports {
		crd := CountryReportDoc{Country: rep.Country, ISP: rep.ISP, ASN: rep.ASN, Errors: rep.Errors, Degraded: rep.Degraded}
		for _, b := range rep.Blocked {
			crd.Blocked = append(crd.Blocked, BlockedURLDoc{
				URL:      b.Entry.URL,
				Category: b.Entry.Category,
				Product:  b.Product,
				Pattern:  b.Pattern,
				FromList: b.FromList,
			})
		}
		if rep.Degraded {
			doc.Degraded = true
		}
		doc.Reports = append(doc.Reports, crd)
	}
	return doc
}
