package plan

import (
	"context"
	"fmt"
	"time"

	"filtermap/internal/longitudinal"
	"filtermap/internal/report"
	"filtermap/internal/scanner"
	"filtermap/internal/urllist"
	"filtermap/internal/world"
)

// Search-based discovery (FilteredWeb): one crawl per
// characterization-target ISP, positioned like characterization (fresh
// world at +8h) so results match fmdiscover.
func init() {
	register(&Plan{
		Kind:      KindDiscover,
		StoreKind: longitudinal.KindDiscovery,
		Advance:   8 * time.Hour,
		Normalize: func(req *Request) error {
			req.Products, req.Countries = nil, nil
			if err := checkNames(&req.ISPs, characterizationISPs(), "discovery ISP"); err != nil {
				return err
			}
			if req.Rounds < 0 {
				return fmt.Errorf("rounds must be >= 0, got %d", req.Rounds)
			}
			if req.Budget < 0 {
				return fmt.Errorf("budget must be >= 0, got %d", req.Budget)
			}
			return nil
		},
		Pieces: func(req Request) []string { return filterISPs(characterizationISPs(), req.ISPs) },
		Exec: func(ctx context.Context, w *world.World, _ *scanner.Index, spec ShardSpec) (*Fragment, error) {
			targets, err := w.RunDiscovery(ctx, world.DiscoveryOptions{
				ISPs:   spec.Pieces,
				Rounds: spec.Rounds,
				Budget: spec.Budget,
			})
			if err != nil {
				return nil, err
			}
			rts := make([]report.DiscoveryTarget, 0, len(targets))
			for _, t := range targets {
				rts = append(rts, report.DiscoveryTarget{Country: t.Country, ISP: t.ISP, ASN: t.ASN, Report: t.Report})
			}
			doc := report.DiscoveryJSON(spec.Rounds, spec.Budget, rts, world.DiscoveredList(targets))
			return &Fragment{Pieces: spec.Pieces, Discovery: doc.Targets}, nil
		},
		Merge: mergeDiscover,
	})
}

// mergeDiscover rebuilds a DiscoveryDoc: targets concatenated in shard
// order, and the renderer's effective caps and synthetic "discovered"
// list reassembled from the novel findings — urllist.DiscoveredList
// dedupes by URL and sorts, so the result is independent of which shard
// found what first.
func mergeDiscover(req Request, frags []*Fragment) (any, bool, error) {
	var targets []report.DiscoveryTargetDoc
	var novel []urllist.Entry
	for _, f := range frags {
		for _, t := range f.Discovery {
			targets = append(targets, t)
			for _, finding := range t.Findings {
				if finding.Novel {
					novel = append(novel, urllist.Entry{URL: finding.URL, Domain: finding.Domain, Category: finding.Category})
				}
			}
		}
	}
	doc := report.DiscoveryJSON(req.Rounds, req.Budget, nil, urllist.DiscoveredList(novel))
	doc.Targets = targets
	for _, t := range targets {
		doc.Degraded = doc.Degraded || t.Degraded
	}
	return doc, doc.Degraded, nil
}
