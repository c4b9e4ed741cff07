package report

import (
	"fmt"
	"sort"
	"strings"

	"filtermap/internal/engine"
	"filtermap/internal/measurement"
	"filtermap/internal/mechanism"
	"filtermap/internal/urllist"
	"filtermap/internal/world"
)

// This file derives the mechanism survey: which censorship mechanism
// (DNS poisoning, RST injection, SNI filtering — or the baseline HTTP
// block page) each ISP deploys, attributed to a product by its wire
// quirks. MechanismsJSON builds the survey document and MechanismSurvey
// renders it.

// degradedProbes lists a target's inconclusive probes ("URL: detail").
func degradedProbes(results []measurement.MechanismResult) []string {
	var out []string
	for i := range results {
		r := &results[i]
		if detail, ok := r.Degraded(); ok {
			out = append(out, r.URL+": "+detail)
		}
		for _, p := range r.Probes {
			if p.Degraded != "" {
				out = append(out, fmt.Sprintf("%s: %s probe: %s", r.URL, p.Kind, p.Degraded))
			}
		}
	}
	return out
}

// MechanismSurvey renders the per-ISP mechanism findings: one row per
// attributed (mechanism, product) pair with its quirk evidence. ISPs
// whose runs carried inconclusive probes get a DEGRADED footer.
func MechanismSurvey(doc MechanismsDoc) string {
	t := &Table{
		Title:   "Mechanism survey: censorship mechanisms and product attribution by ISP.",
		Headers: []string{"ISP", "Where", "Mechanism", "Product", "Evidence"},
	}
	tested, censored := 0, 0
	var degraded []string
	for _, isp := range doc.Mechanisms {
		where := fmt.Sprintf("%s (AS %d)", isp.Country, isp.ASN)
		tested += isp.Tested
		censored += isp.Censored
		if len(isp.Findings) == 0 {
			t.AddRow(isp.ISP, where, "-", "-", "none detected")
		}
		for _, f := range isp.Findings {
			t.AddRow(isp.ISP, where, f.Mechanism, f.Product, f.Evidence)
		}
		if len(isp.Degraded) > 0 {
			degraded = append(degraded, fmt.Sprintf("  %s (AS %d): %d inconclusive probe line(s)",
				isp.ISP, isp.ASN, len(isp.Degraded)))
		}
	}
	out := t.String()
	out += fmt.Sprintf("%d ISP(s) surveyed, %d URL(s) tested, %d censored.\n",
		len(doc.Mechanisms), tested, censored)
	return out + degradedFooter("survey run(s) had inconclusive probes", degraded)
}

// Table4Mechanisms renders the mechanism analog of Table 4: per ISP, the
// attributed product, the operative mechanism(s) — the column Table 4
// lacks because the paper only measured HTTP block pages — and which
// protected-speech research categories the mechanism censors. It reads
// the per-probe detections, which MechanismsDoc does not carry.
func Table4Mechanisms(targets []world.MechanismSurveyTarget) string {
	cols := table4Columns()
	headers := []string{"Product", "Where", "Mechanism"}
	for _, c := range cols {
		headers = append(headers, c.Name)
	}
	t := &Table{
		Title:   "Table 4 (mechanisms): Web content blocked via DNS/RST/SNI censorship.",
		Headers: headers,
	}
	catOf := globalCategoryIndex()
	for i := range targets {
		tgt := &targets[i]
		products, kinds, blocked := targetAttribution(tgt, catOf)
		cells := []string{
			strings.Join(products, ", "),
			fmt.Sprintf("%s (AS %d)", tgt.Country, tgt.ASN),
			strings.Join(kinds, "+"),
		}
		for _, c := range cols {
			cells = append(cells, mark(blocked[c.Code]))
		}
		t.AddRow(cells...)
	}
	return t.String()
}

// globalCategoryIndex maps global-list URLs to research category codes.
func globalCategoryIndex() map[string]string {
	list := urllist.GlobalList()
	out := make(map[string]string, len(list.Entries))
	for _, e := range list.Entries {
		out[e.URL] = e.Category
	}
	return out
}

// targetAttribution derives one matrix row's cells: distinct products
// (sorted; "(unattributed)" when quirks matched nothing), distinct
// mechanism kinds (report order), and the censored category set.
func targetAttribution(tgt *world.MechanismSurveyTarget, catOf map[string]string) (products, kinds []string, blocked map[string]bool) {
	prodSet := make(map[string]bool)
	kindSet := make(map[mechanism.Kind]bool)
	blocked = make(map[string]bool)
	for i := range tgt.Results {
		r := &tgt.Results[i]
		if !r.Censored() {
			continue
		}
		p := r.MechProduct
		if p == "" {
			p = "(unattributed)"
		}
		prodSet[p] = true
		kindSet[r.Mechanism] = true
		// Probes that fired beyond the frontline mechanism (mixed
		// deployments) contribute to the Mechanism cell too.
		for _, probe := range r.Probes {
			if probe.Detected {
				kindSet[probe.Kind] = true
				if probe.Product != "" {
					prodSet[probe.Product] = true
				}
			}
		}
		if cat, ok := catOf[r.URL]; ok {
			blocked[cat] = true
		}
	}
	for p := range prodSet {
		products = append(products, p)
	}
	sort.Strings(products)
	for _, k := range mechanism.Kinds() {
		if kindSet[k] {
			kinds = append(kinds, string(k))
		}
	}
	if len(products) == 0 {
		products = []string{"-"}
	}
	if len(kinds) == 0 {
		kinds = []string{"-"}
	}
	return products, kinds, blocked
}

// MechanismsDoc is the mechanism survey document (fmserve's
// POST /v1/mechanisms encoding and fmrepro's -json form).
type MechanismsDoc struct {
	// Mechanisms holds one entry per surveyed ISP, in survey order.
	Mechanisms []MechanismISPDoc `json:"mechanisms"`
	// Degraded reports that at least one run had inconclusive probes.
	Degraded bool `json:"degraded,omitempty"`
	// Stats optionally carries the engine's per-stage execution snapshot.
	Stats *engine.Snapshot `json:"stats,omitempty"`
}

// MechanismISPDoc is one ISP's mechanism findings.
type MechanismISPDoc struct {
	ISP      string `json:"isp"`
	Country  string `json:"country"`
	ASN      int    `json:"asn"`
	Tested   int    `json:"tested"`
	Censored int    `json:"censored"`
	// Findings lists distinct (mechanism, product, evidence) attributions.
	Findings []MechanismFindingDoc `json:"findings,omitempty"`
	URLs     []MechanismURLDoc     `json:"urls"`
	// Degraded lists inconclusive probe detail; the run is partial when
	// non-empty.
	Degraded []string `json:"degraded,omitempty"`
}

// MechanismFindingDoc is one attributed mechanism observation.
type MechanismFindingDoc struct {
	Mechanism string `json:"mechanism"`
	Product   string `json:"product"`
	Evidence  string `json:"evidence,omitempty"`
}

// MechanismURLDoc is one URL's mechanism verdict.
type MechanismURLDoc struct {
	URL       string `json:"url"`
	Verdict   string `json:"verdict"`
	Mechanism string `json:"mechanism,omitempty"`
	Product   string `json:"product,omitempty"`
	Evidence  string `json:"evidence,omitempty"`
}

// MechanismsJSON builds the mechanism survey document.
func MechanismsJSON(targets []world.MechanismSurveyTarget) MechanismsDoc {
	var doc MechanismsDoc
	for i := range targets {
		tgt := &targets[i]
		s := measurement.SummarizeMechanisms(tgt.Results)
		ispDoc := MechanismISPDoc{
			ISP: tgt.ISP, Country: tgt.Country, ASN: tgt.ASN,
			Tested: s.Total, Censored: s.Censored,
			Degraded: degradedProbes(tgt.Results),
		}
		for _, f := range s.Findings {
			ispDoc.Findings = append(ispDoc.Findings, MechanismFindingDoc{
				Mechanism: string(f.Kind), Product: f.Product, Evidence: f.Evidence,
			})
		}
		for j := range tgt.Results {
			r := &tgt.Results[j]
			ispDoc.URLs = append(ispDoc.URLs, MechanismURLDoc{
				URL:       r.URL,
				Verdict:   r.Verdict.String(),
				Mechanism: string(r.Mechanism),
				Product:   r.MechProduct,
				Evidence:  r.MechEvidence,
			})
		}
		if len(ispDoc.Degraded) > 0 {
			doc.Degraded = true
		}
		doc.Mechanisms = append(doc.Mechanisms, ispDoc)
	}
	return doc
}

// Table2WithMechanisms renders Table 2 with the mechanism-signature
// column appended: per product, the wire quirks (DNS sinkhole/TTL,
// injected-RST TTL/window/sidedness, SNI filter behaviour) that
// attribute off-path censorship to it. The three-column Table2 stays the
// HTTP-only golden surface; this variant renders only in mechanism mode.
func Table2WithMechanisms(keywords, signatures, mechSigs map[string][]string) string {
	t := &Table{
		Title:   "Table 2: Identification keywords, validation signatures, and mechanism quirks.",
		Headers: []string{"Product", "Shodan keywords", "WhatWeb signature", "Mechanism signatures"},
	}
	for _, p := range unionProducts(keywords, mechSigs) {
		t.AddRow(p,
			strings.Join(keywords[p], ", "),
			strings.Join(signatures[p], "; "),
			strings.Join(mechSigs[p], "; "))
	}
	return t.String()
}

// unionProducts merges and sorts the product keys of both maps.
func unionProducts(a, b map[string][]string) []string {
	seen := make(map[string]bool, len(a)+len(b))
	var out []string
	for p := range a {
		seen[p] = true
		out = append(out, p)
	}
	for p := range b {
		if !seen[p] {
			out = append(out, p)
		}
	}
	sort.Strings(out)
	return out
}
