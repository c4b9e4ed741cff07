package plan

import (
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"

	"filtermap/internal/engine"
	"filtermap/internal/fingerprint"
	"filtermap/internal/report"
	"filtermap/internal/scanner"
	"filtermap/internal/world"
)

// §3 identification: one piece per Table 2 product. The keyword fan-out
// is per product, and validation returns every product's matches for a
// candidate regardless of which keyword surfaced it, so per-product
// shards merge exactly. Shards run on a replica's Epoch: its banner
// index is scanned once, and a candidate validated by an earlier shard
// on it is answered from that shard's outcome. Its history is
// installation churn: added/removed IPs, per-IP product upgrades,
// ASN/country migrations and per-country / per-product count deltas,
// and a timeline counts installations (Figure 1 over time).
func init() {
	register(&Plan{
		Kind:      KindIdentify,
		StoreKind: StoreIdentify,
		Replica:   true,
		Normalize: func(req *Request) error {
			*req = Request{Kind: req.Kind, World: req.World, Products: req.Products, Countries: req.Countries}
			if err := checkCountries(&req.Countries); err != nil {
				return err
			}
			return checkNames(&req.Products, products(), "product")
		},
		Pieces: func(req Request) []string {
			if len(req.Products) > 0 {
				return req.Products
			}
			return products()
		},
		Exec:    execIdentify,
		Merge:   mergeParts(mergeIdentify),
		DiffKey: "installs",
		Diff:    diffDocs(diffInstalls),
		Count: countDocs(func(doc report.IdentifyDoc, add func(string, int)) {
			for _, in := range doc.Installations {
				add(in.Country, 1)
			}
		}),
		Counts: "Installations",
	})
}

// checkCountries canonicalizes a country list to sorted, deduplicated
// upper-case codes and rejects anything that is not two ASCII letters:
// each code becomes a "country:" filter of the keyword queries.
func checkCountries(ccs *[]string) error {
	var out []string
	for _, cc := range *ccs {
		switch cc = strings.TrimSpace(cc); {
		case cc == "":
		case len(cc) != 2 || !isLetter(cc[0]) || !isLetter(cc[1]):
			return fmt.Errorf("bad country %q (want a two-letter code)", cc)
		default:
			out = append(out, strings.ToUpper(cc))
		}
	}
	sort.Strings(out)
	*ccs = slices.Compact(out)
	return nil
}

func isLetter(c byte) bool { return 'a' <= c && c <= 'z' || 'A' <= c && c <= 'Z' }

// products lists the Table 2 product names, sorted.
func products() []string {
	var out []string
	for p := range fingerprint.ShodanKeywords() {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

// identifyPart is an identify shard's fragment: its document plus the
// candidate addresses each product's keywords surfaced. The merged
// CandidateCount is the distinct-address union across products, which
// the shard documents' counts cannot express.
type identifyPart struct {
	report.IdentifyDoc
	Candidates map[string][]netip.Addr `json:"candidates,omitempty"`
}

func execIdentify(ctx context.Context, w *world.World, ep *Epoch, spec ShardSpec) (*Fragment, error) {
	var idx *scanner.Index
	if ep != nil {
		idx = ep.Index
	}
	p, err := w.IdentifyPipeline(ctx, idx)
	if err != nil {
		return nil, err
	}
	if ep != nil {
		p.Outcomes = ep.Validated
	}
	all := fingerprint.ShodanKeywords()
	kw := make(map[string][]string, len(spec.Pieces))
	for _, prod := range spec.Pieces {
		kw[prod] = all[prod]
	}
	p.Keywords = kw
	if len(spec.Countries) > 0 {
		p.Countries = spec.Countries
	}
	rep, err := p.Run(ctx)
	if err != nil {
		return nil, err
	}
	return &Fragment{part: identifyPart{IdentifyDoc: report.IdentifyJSON(rep), Candidates: rep.CandidatesByProduct}}, nil
}

// mergeIdentify rebuilds an IdentifyDoc from per-product shards. The
// subtleties mirror internal/identify:
//
//   - CandidateCount is the distinct-IP union across products (a host
//     surfaced by two products' keywords counts once).
//   - The same installation appearing in two shards is byte-identical
//     and dedupes by IP.
//   - Installations sort by *numeric* address order (compareIPs), not
//     lexicographically.
//   - Stage errors dedupe by (stage, target): the single process
//     validates each candidate once and does one bulk whois, while two
//     shards sharing a candidate each record the same failure.
func mergeIdentify(_ Request, parts []identifyPart) (any, bool, error) {
	var doc report.IdentifyDoc

	candidates := make(map[netip.Addr]bool)
	seenInstall := make(map[string]bool)
	seenStage := make(map[string]bool)

	for _, part := range parts {
		for _, addrs := range part.Candidates {
			for _, a := range addrs {
				candidates[a] = true
			}
		}
		for _, inst := range part.Installations {
			if seenInstall[inst.IP] {
				continue
			}
			seenInstall[inst.IP] = true
			if _, err := netip.ParseAddr(inst.IP); err != nil {
				return nil, false, fmt.Errorf("plan: merge identify: bad installation IP %q: %v", inst.IP, err)
			}
			doc.Installations = append(doc.Installations, inst)
		}
		doc.QueryErrors = append(doc.QueryErrors, part.QueryErrors...)
		for _, se := range part.StageErrors {
			key := se.Stage + "\x00" + se.Target
			if seenStage[key] {
				continue
			}
			seenStage[key] = true
			doc.StageErrors = append(doc.StageErrors, se)
		}
	}

	slices.SortFunc(doc.Installations, func(a, b report.InstallationDoc) int { return compareIPs(a.IP, b.IP) })
	sort.Slice(doc.QueryErrors, func(i, j int) bool {
		a, b := doc.QueryErrors[i], doc.QueryErrors[j]
		if a.Product != b.Product {
			return a.Product < b.Product
		}
		return a.Query < b.Query
	})
	sort.Slice(doc.StageErrors, func(i, j int) bool {
		a, b := doc.StageErrors[i], doc.StageErrors[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Target < b.Target
	})

	doc.CandidateCount = len(candidates)
	doc.ValidatedCount = len(doc.Installations)
	if doc.CandidateCount > 0 {
		doc.FalsePositiveRate = float64(doc.CandidateCount-doc.ValidatedCount) / float64(doc.CandidateCount)
	}
	doc.ProductCountries = productCountries(doc.Installations)
	doc.Degraded = len(doc.StageErrors) > 0 || len(doc.QueryErrors) > 0
	return doc, doc.Degraded, nil
}

// productCountries recomputes the Figure 1 map from merged
// installations, matching identify.Report.ProductCountries (always a
// non-nil map; countries sorted; unknown countries skipped).
func productCountries(installs []report.InstallationDoc) map[string][]string {
	set := make(map[string]map[string]bool)
	for _, inst := range installs {
		if inst.Country == "" {
			continue
		}
		for _, p := range inst.Products {
			if set[p] == nil {
				set[p] = make(map[string]bool)
			}
			set[p][inst.Country] = true
		}
	}
	out := make(map[string][]string, len(set))
	for p, countries := range set {
		list := make([]string, 0, len(countries))
		for c := range countries {
			list = append(list, c)
		}
		sort.Strings(list)
		out[p] = list
	}
	return out
}

// compareIPs is the one order of installation addresses: numeric
// (netip.Addr.Compare, so IPv4 before IPv6). A string that does not
// parse — a hand-edited document ingested with fmhist record -in — sorts
// after every address that does, by string.
func compareIPs(a, b string) int {
	x, errX := netip.ParseAddr(a)
	y, errY := netip.ParseAddr(b)
	switch {
	case errX != nil && errY != nil:
		return strings.Compare(a, b)
	case errX != nil:
		return 1
	case errY != nil:
		return -1
	}
	if c := x.Compare(y); c != 0 {
		return c
	}
	return strings.Compare(a, b)
}

// InstallDiff is identification churn: the §3 installation set compared
// across two runs.
type InstallDiff struct {
	FromTotal int `json:"from_total"`
	ToTotal   int `json:"to_total"`
	// Added and Removed are installations present on only one side,
	// sorted by IP.
	Added   []report.InstallationDoc `json:"added,omitempty"`
	Removed []report.InstallationDoc `json:"removed,omitempty"`
	// Changed lists per-IP product upgrades and ASN/country migrations.
	Changed   []InstallationChange `json:"changed,omitempty"`
	Unchanged int                  `json:"unchanged"`
	// Countries and Products are count deltas (Figure 1 drift).
	Countries []CountryDelta `json:"countries,omitempty"`
	Products  []ProductDelta `json:"products,omitempty"`
}

// InstallationChange is one surviving IP whose attributes moved.
type InstallationChange struct {
	IP string `json:"ip"`
	// ProductsAdded/Removed capture upgrades and replacements (e.g. a
	// proxy now also fingerprinting as a newer product).
	ProductsAdded   []string `json:"products_added,omitempty"`
	ProductsRemoved []string `json:"products_removed,omitempty"`
	// Migration detail (set when Migrated).
	FromASN     int    `json:"from_asn,omitempty"`
	ToASN       int    `json:"to_asn,omitempty"`
	FromASName  string `json:"from_as_name,omitempty"`
	ToASName    string `json:"to_as_name,omitempty"`
	FromCountry string `json:"from_country,omitempty"`
	ToCountry   string `json:"to_country,omitempty"`
	// Hostname change (re-pointed DNS) is tracked but classified as
	// neither upgrade nor migration.
	FromHostname string `json:"from_hostname,omitempty"`
	ToHostname   string `json:"to_hostname,omitempty"`
	// Upgraded: product set changed. Migrated: ASN or country changed.
	Upgraded bool `json:"upgraded"`
	Migrated bool `json:"migrated"`
}

// CountryDelta is one country's installation-count change.
type CountryDelta struct {
	Country string `json:"country"`
	From    int    `json:"from"`
	To      int    `json:"to"`
}

// ProductDelta is one product's installation-count change.
type ProductDelta struct {
	Product string `json:"product"`
	From    int    `json:"from"`
	To      int    `json:"to"`
}

func diffInstalls(ctx context.Context, cfg engine.Config, from, to report.IdentifyDoc) (*InstallDiff, error) {
	ch, err := diffKeyed(ctx, cfg, "diff-installs", from.Installations, to.Installations,
		func(in report.InstallationDoc) string { return in.IP }, compareIPs, compareInstall)
	if err != nil {
		return nil, err
	}
	return &InstallDiff{
		FromTotal: len(from.Installations), ToTotal: len(to.Installations),
		Added: ch.Added, Removed: ch.Removed, Changed: ch.Changed, Unchanged: ch.Unchanged,
		Countries: countryDeltas(from.Installations, to.Installations),
		Products:  productDeltas(from.Installations, to.Installations),
	}, nil
}

// compareInstall reports how one IP's installation moved.
func compareInstall(f, t *report.InstallationDoc) (InstallationChange, bool) {
	if f == nil || t == nil {
		return InstallationChange{}, false
	}
	c := InstallationChange{IP: f.IP}
	c.ProductsAdded = setMinus(t.Products, f.Products)
	c.ProductsRemoved = setMinus(f.Products, t.Products)
	c.Upgraded = len(c.ProductsAdded) > 0 || len(c.ProductsRemoved) > 0
	if f.ASN != t.ASN || f.Country != t.Country {
		c.Migrated = true
		c.FromASN, c.ToASN = f.ASN, t.ASN
		c.FromASName, c.ToASName = f.ASName, t.ASName
		c.FromCountry, c.ToCountry = f.Country, t.Country
	}
	if f.Hostname != t.Hostname {
		c.FromHostname, c.ToHostname = f.Hostname, t.Hostname
	}
	return c, c.Upgraded || c.Migrated || c.FromHostname != "" || c.ToHostname != ""
}

func countryDeltas(from, to []report.InstallationDoc) []CountryDelta {
	fc, tc := map[string]int{}, map[string]int{}
	for _, in := range from {
		fc[in.Country]++
	}
	for _, in := range to {
		tc[in.Country]++
	}
	var out []CountryDelta
	for _, cc := range unionKeys(fc, tc) {
		if fc[cc] != tc[cc] {
			out = append(out, CountryDelta{Country: cc, From: fc[cc], To: tc[cc]})
		}
	}
	return out
}

func productDeltas(from, to []report.InstallationDoc) []ProductDelta {
	fc, tc := map[string]int{}, map[string]int{}
	for _, in := range from {
		for _, p := range in.Products {
			fc[p]++
		}
	}
	for _, in := range to {
		for _, p := range in.Products {
			tc[p]++
		}
	}
	var out []ProductDelta
	for _, p := range unionKeys(fc, tc) {
		if fc[p] != tc[p] {
			out = append(out, ProductDelta{Product: p, From: fc[p], To: tc[p]})
		}
	}
	return out
}

func unionKeys(a, b map[string]int) []string {
	keys := make([]string, 0, len(a)+len(b))
	for k := range a {
		keys = append(keys, k)
	}
	for k := range b {
		if _, ok := a[k]; !ok {
			keys = append(keys, k)
		}
	}
	sort.Strings(keys)
	return keys
}

func (d *InstallDiff) summary() []string {
	var parts []string
	if n := len(d.Added); n > 0 {
		parts = append(parts, fmt.Sprintf("+%d installs", n))
	}
	if n := len(d.Removed); n > 0 {
		parts = append(parts, fmt.Sprintf("-%d installs", n))
	}
	if n := len(d.Changed); n > 0 {
		parts = append(parts, fmt.Sprintf("%d changed", n))
	}
	return parts
}

func (d *InstallDiff) render(b *strings.Builder) {
	fmt.Fprintf(b, "Installations: %d -> %d (%d added, %d removed, %d changed, %d unchanged)\n",
		d.FromTotal, d.ToTotal, len(d.Added), len(d.Removed), len(d.Changed), d.Unchanged)
	instHeaders := []string{"IP", "Products", "CC", "AS", "Hostname"}
	instCells := func(in report.InstallationDoc) []string {
		return []string{in.IP, strings.Join(in.Products, ","), in.Country, fmt.Sprintf("AS%d %s", in.ASN, in.ASName), orDash(in.Hostname)}
	}
	writeTable(b, "\nAdded installations:", instHeaders, d.Added, instCells)
	writeTable(b, "\nRemoved installations:", instHeaders, d.Removed, instCells)
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
	writeTable(b, "\nPer-country installation counts:", []string{"CC", "From", "To", "Delta"}, d.Countries, func(cd CountryDelta) []string {
		return []string{cd.Country, fmt.Sprint(cd.From), fmt.Sprint(cd.To), signed(cd.To - cd.From)}
	})
	writeTable(b, "\nPer-product installation counts:", []string{"Product", "From", "To", "Delta"}, d.Products, func(pd ProductDelta) []string {
		return []string{pd.Product, fmt.Sprint(pd.From), fmt.Sprint(pd.To), signed(pd.To - pd.From)}
	})
}

func signed(n int) string {
	if n > 0 {
		return fmt.Sprintf("+%d", n)
	}
	return fmt.Sprint(n)
}
