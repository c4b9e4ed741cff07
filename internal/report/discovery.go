package report

import (
	"fmt"
	"strconv"
	"strings"

	"filtermap/internal/discovery"
	"filtermap/internal/engine"
	"filtermap/internal/urllist"
	"filtermap/internal/world"
)

// effectiveCaps resolves zero crawl caps to the discovery defaults, so
// the document records the caps the crawl actually ran under.
func effectiveCaps(rounds, budget int) (int, int) {
	if rounds <= 0 {
		rounds = discovery.DefaultRounds
	}
	if budget <= 0 {
		budget = discovery.DefaultBudget
	}
	return rounds, budget
}

// Discovery renders the discovery crawl summary as text: per-target
// totals, per-round detail, the novel blocked URLs the curated lists
// miss, and the size of the synthetic "discovered" list they assemble
// into.
func Discovery(doc DiscoveryDoc) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Discovery: crawl-based blocked-URL discovery (rounds=%d, budget=%d)\n", doc.Rounds, doc.Budget)

	summary := &Table{
		Headers: []string{"Target", "Seeds", "Probed", "Blocked", "Novel", "Budget exhausted"},
	}
	detail := &Table{
		Title:   "Round detail",
		Headers: []string{"Target", "Round", "Probed", "Blocked", "Accessible", "New candidates"},
	}
	novel := &Table{
		Title:   "Novel blocked URLs (absent from every curated list)",
		Headers: []string{"Target", "URL", "Category", "Product", "Round", "Via"},
	}
	var degraded []string
	for _, t := range doc.Targets {
		label := fmt.Sprintf("%s (%s, AS %d)", t.ISP, t.Country, t.ASN)
		blocked := 0
		for _, r := range t.Rounds {
			blocked += r.Blocked
			detail.AddRow(label, strconv.Itoa(r.Round), strconv.Itoa(r.Probed), strconv.Itoa(r.Blocked),
				strconv.Itoa(r.Accessible), strconv.Itoa(r.NewCandidates))
		}
		novelCount := 0
		for _, f := range t.Findings {
			if !f.Novel {
				continue
			}
			novelCount++
			via := f.Source
			if via == "" {
				via = "(seed)"
			}
			novel.AddRow(label, f.URL, f.Category, f.Product, strconv.Itoa(f.Round), via)
		}
		exhausted := "no"
		if t.BudgetExhausted {
			exhausted = "yes"
		}
		summary.AddRow(label, strconv.Itoa(t.Seeds), strconv.Itoa(t.Probed), strconv.Itoa(blocked),
			strconv.Itoa(novelCount), exhausted)
		if t.Degraded {
			degraded = append(degraded, fmt.Sprintf("  %s: %d degraded probe(s)", label, len(t.Errors)))
		}
	}
	b.WriteString(summary.String())
	b.WriteByte('\n')
	b.WriteString(detail.String())
	b.WriteByte('\n')
	b.WriteString(novel.String())
	fmt.Fprintf(&b, "\nDiscovered list: %d unique URLs under synthetic theme %q.\n",
		len(doc.Discovered), urllist.ThemeDiscovered)
	b.WriteString(degradedFooter("crawl(s) had transport-degraded probes", degraded))
	return b.String()
}

// DiscoveryDoc is the JSON rendering of a discovery run.
type DiscoveryDoc struct {
	// Rounds and Budget are the effective per-target crawl caps.
	Rounds  int                  `json:"rounds"`
	Budget  int                  `json:"budget"`
	Targets []DiscoveryTargetDoc `json:"targets"`
	// Discovered is the deduplicated, sorted synthetic "discovered" list
	// assembled from the targets' novel findings.
	Discovered []DiscoveredURLDoc `json:"discovered"`
	// Degraded reports that at least one target's crawl was degraded.
	Degraded bool `json:"degraded,omitempty"`
	// Stats optionally carries the engine's per-stage execution snapshot.
	Stats *engine.Snapshot `json:"stats,omitempty"`
}

// DiscoveryTargetDoc is one target's crawl outcome.
type DiscoveryTargetDoc struct {
	Country         string                `json:"country"`
	ISP             string                `json:"isp"`
	ASN             int                   `json:"asn"`
	Seeds           int                   `json:"seeds"`
	Probed          int                   `json:"probed"`
	BudgetExhausted bool                  `json:"budget_exhausted"`
	Rounds          []DiscoveryRoundDoc   `json:"rounds"`
	Findings        []DiscoveryFindingDoc `json:"findings"`
	// Errors lists transport-degraded probes ("URL: detail") in probe
	// order; Degraded marks the crawl as partial.
	Errors   []string `json:"errors,omitempty"`
	Degraded bool     `json:"degraded,omitempty"`
}

// DiscoveryRoundDoc is one crawl round's statistics.
type DiscoveryRoundDoc struct {
	Round         int `json:"round"`
	Probed        int `json:"probed"`
	Blocked       int `json:"blocked"`
	Accessible    int `json:"accessible"`
	NewCandidates int `json:"new_candidates"`
}

// DiscoveryFindingDoc is one blocked URL a crawl observed.
type DiscoveryFindingDoc struct {
	URL      string `json:"url"`
	Domain   string `json:"domain"`
	Product  string `json:"product"`
	Pattern  string `json:"pattern"`
	Category string `json:"category,omitempty"`
	Source   string `json:"source,omitempty"`
	Round    int    `json:"round"`
	Novel    bool   `json:"novel"`
}

// DiscoveredURLDoc is one entry of the synthetic "discovered" list.
type DiscoveredURLDoc struct {
	URL      string `json:"url"`
	Domain   string `json:"domain"`
	Category string `json:"category,omitempty"`
}

// DiscoveryJSON builds the discovery document from the targets' crawl
// reports and the "discovered" list assembled from them. Zero
// rounds/budget are recorded as the discovery defaults.
func DiscoveryJSON(rounds, budget int, targets []world.TargetDiscovery, discovered urllist.List) DiscoveryDoc {
	rounds, budget = effectiveCaps(rounds, budget)
	doc := DiscoveryDoc{Rounds: rounds, Budget: budget}
	for _, t := range targets {
		td := DiscoveryTargetDoc{
			Country:         t.Country,
			ISP:             t.ISP,
			ASN:             t.ASN,
			Seeds:           t.Report.Seeds,
			Probed:          t.Report.Probed,
			BudgetExhausted: t.Report.BudgetExhausted,
			Errors:          t.Report.Errors,
			Degraded:        t.Report.Degraded,
		}
		for _, r := range t.Report.Rounds {
			td.Rounds = append(td.Rounds, DiscoveryRoundDoc(r))
		}
		for _, f := range t.Report.Findings {
			td.Findings = append(td.Findings, DiscoveryFindingDoc{
				URL:      f.URL,
				Domain:   f.Domain,
				Product:  f.Product,
				Pattern:  f.Pattern,
				Category: f.Category,
				Source:   f.Source,
				Round:    f.Round,
				Novel:    f.Novel,
			})
		}
		if td.Degraded {
			doc.Degraded = true
		}
		doc.Targets = append(doc.Targets, td)
	}
	for _, e := range discovered.Entries {
		doc.Discovered = append(doc.Discovered, DiscoveredURLDoc{
			URL:      e.URL,
			Domain:   e.Domain,
			Category: e.Category,
		})
	}
	return doc
}
