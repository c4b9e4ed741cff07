package plan

import (
	"context"

	"filtermap/internal/longitudinal"
	"filtermap/internal/report"
	"filtermap/internal/scanner"
	"filtermap/internal/world"
)

// The mechanism survey (Where The Light Gets In): DNS, raw-TCP and TLS
// probes of one mechanism-roster ISP per piece, on a fresh world at the
// epoch with the censoring roster enabled.
func init() {
	register(&Plan{
		Kind:      KindMechanisms,
		StoreKind: longitudinal.KindMechanisms,
		Normalize: func(req *Request) error {
			req.Products, req.Countries, req.Rounds, req.Budget = nil, nil, 0, 0
			// The survey is meaningless without the censoring roster.
			if req.World.Mechanisms == nil {
				req.World.Mechanisms = &world.MechanismOptions{}
			}
			return checkNames(&req.ISPs, world.MechanismRosterISPs(), "mechanism-roster ISP")
		},
		Pieces: func(req Request) []string { return filterISPs(world.MechanismRosterISPs(), req.ISPs) },
		Exec: func(ctx context.Context, w *world.World, _ *scanner.Index, spec ShardSpec) (*Fragment, error) {
			targets, err := w.RunMechanismSurveyFor(ctx, spec.Pieces)
			if err != nil {
				return nil, err
			}
			rts := make([]report.MechanismTarget, 0, len(targets))
			for _, t := range targets {
				rts = append(rts, report.MechanismTarget{Country: t.Country, ISP: t.ISP, ASN: t.ASN, Results: t.Results})
			}
			doc := report.MechanismsJSON(rts)
			return &Fragment{Pieces: spec.Pieces, Mechanisms: doc.Mechanisms}, nil
		},
		Merge: func(_ Request, frags []*Fragment) (any, bool, error) {
			// MechanismsJSON builds each entry purely per target, so
			// concatenation in shard (= roster) order is the whole merge.
			var doc report.MechanismsDoc
			for _, f := range frags {
				for _, m := range f.Mechanisms {
					if len(m.Degraded) > 0 {
						doc.Degraded = true
					}
					doc.Mechanisms = append(doc.Mechanisms, m)
				}
			}
			return doc, doc.Degraded, nil
		},
	})
}
