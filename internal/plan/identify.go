package plan

import (
	"context"
	"fmt"
	"net/netip"
	"sort"

	"filtermap/internal/fingerprint"
	"filtermap/internal/longitudinal"
	"filtermap/internal/report"
	"filtermap/internal/scanner"
	"filtermap/internal/world"
)

// §3 identification: one piece per Table 2 product. The keyword fan-out
// is per product, and validation returns every product's matches for a
// candidate regardless of which keyword surfaced it, so per-product
// shards merge exactly. Shards run on a replica at the world epoch with
// a once-scanned banner index.
func init() {
	register(&Plan{
		Kind:      KindIdentify,
		StoreKind: longitudinal.KindIdentify,
		Replica:   true,
		Normalize: func(req *Request) error {
			req.ISPs, req.Rounds, req.Budget = nil, 0, 0
			req.Countries = sortDedupe(req.Countries)
			return checkNames(&req.Products, products(), "product")
		},
		Pieces: func(req Request) []string {
			if len(req.Products) > 0 {
				return req.Products
			}
			return products()
		},
		Exec:  execIdentify,
		Merge: mergeIdentify,
	})
}

// products lists the Table 2 product names, sorted.
func products() []string {
	var out []string
	for p := range fingerprint.ShodanKeywords() {
		out = append(out, p)
	}
	sort.Strings(out)
	return out
}

func execIdentify(ctx context.Context, w *world.World, idx *scanner.Index, spec ShardSpec) (*Fragment, error) {
	p, err := w.IdentifyPipeline(ctx, idx)
	if err != nil {
		return nil, err
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
	doc := report.IdentifyJSON(rep)
	frag := &Fragment{
		Pieces:        spec.Pieces,
		Installations: doc.Installations,
		QueryErrors:   doc.QueryErrors,
		StageErrors:   doc.StageErrors,
	}
	if len(rep.CandidatesByProduct) > 0 {
		frag.Candidates = make(map[string][]string, len(rep.CandidatesByProduct))
		for product, addrs := range rep.CandidatesByProduct {
			strs := make([]string, len(addrs))
			for i, a := range addrs {
				strs[i] = a.String()
			}
			frag.Candidates[product] = strs
		}
	}
	return frag, nil
}

// mergeIdentify rebuilds an IdentifyDoc from per-product shards. The
// subtleties mirror internal/identify:
//
//   - CandidateCount is the distinct-IP union across products (a host
//     surfaced by two products' keywords counts once).
//   - The same installation appearing in two shards is byte-identical
//     and dedupes by IP.
//   - Installations sort by *numeric* address order (netip.Addr.Less),
//     not lexicographically.
//   - Stage errors dedupe by (stage, target): the single process
//     validates each candidate once and does one bulk whois, while two
//     shards sharing a candidate each record the same failure.
func mergeIdentify(_ Request, frags []*Fragment) (any, bool, error) {
	var doc report.IdentifyDoc

	candidates := make(map[string]bool)
	seenInstall := make(map[string]bool)
	type addrInstall struct {
		addr netip.Addr
		doc  report.InstallationDoc
	}
	var installs []addrInstall
	seenStage := make(map[string]bool)

	for _, f := range frags {
		for _, addrs := range f.Candidates {
			for _, a := range addrs {
				candidates[a] = true
			}
		}
		for _, inst := range f.Installations {
			if seenInstall[inst.IP] {
				continue
			}
			seenInstall[inst.IP] = true
			addr, err := netip.ParseAddr(inst.IP)
			if err != nil {
				return nil, false, fmt.Errorf("plan: merge identify: bad installation IP %q: %v", inst.IP, err)
			}
			installs = append(installs, addrInstall{addr: addr, doc: inst})
		}
		doc.QueryErrors = append(doc.QueryErrors, f.QueryErrors...)
		for _, se := range f.StageErrors {
			key := se.Stage + "\x00" + se.Target
			if seenStage[key] {
				continue
			}
			seenStage[key] = true
			doc.StageErrors = append(doc.StageErrors, se)
		}
	}

	sort.Slice(installs, func(i, j int) bool { return installs[i].addr.Less(installs[j].addr) })
	for _, ai := range installs {
		doc.Installations = append(doc.Installations, ai.doc)
	}
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
