package plan

import (
	"context"
	"sort"
	"time"

	"filtermap/internal/longitudinal"
	"filtermap/internal/report"
	"filtermap/internal/scanner"
	"filtermap/internal/world"
)

// §5 characterization (Table 4): one piece per characterization-target
// ISP, on a fresh world advanced 8 virtual hours so the YemenNet license
// window is active, exactly as fmcharacterize positions it.
func init() {
	register(&Plan{
		Kind:      KindCharacterize,
		StoreKind: longitudinal.KindTable4,
		Advance:   8 * time.Hour,
		Normalize: func(req *Request) error {
			req.Products, req.Countries, req.Rounds, req.Budget = nil, nil, 0, 0
			return checkNames(&req.ISPs, characterizationISPs(), "characterization ISP")
		},
		Pieces: func(req Request) []string { return filterISPs(characterizationISPs(), req.ISPs) },
		Exec: func(ctx context.Context, w *world.World, _ *scanner.Index, spec ShardSpec) (*Fragment, error) {
			reports, err := w.RunCharacterizationFor(ctx, spec.Pieces)
			if err != nil {
				return nil, err
			}
			doc := report.Table4JSON(reports)
			return &Fragment{Pieces: spec.Pieces, Table4Rows: doc.Rows, Reports: doc.Reports}, nil
		},
		Merge: mergeCharacterize,
	})
}

// mergeCharacterize rebuilds a Table4Doc: the renderer's catalog
// columns, rows re-sorted globally by (product, ASN) — the Matrix order,
// with unique keys across targets — and per-target reports concatenated
// in shard (= target) order.
func mergeCharacterize(_ Request, frags []*Fragment) (any, bool, error) {
	doc := report.Table4JSON(nil)
	for _, f := range frags {
		doc.Rows = append(doc.Rows, f.Table4Rows...)
		for _, rep := range f.Reports {
			if rep.Degraded {
				doc.Degraded = true
			}
			doc.Reports = append(doc.Reports, rep)
		}
	}
	sort.Slice(doc.Rows, func(i, j int) bool {
		if doc.Rows[i].Product != doc.Rows[j].Product {
			return doc.Rows[i].Product < doc.Rows[j].Product
		}
		return doc.Rows[i].ASN < doc.Rows[j].ASN
	})
	return doc, doc.Degraded, nil
}
