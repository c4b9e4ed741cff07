package plan

import (
	"context"
	"fmt"
	"strings"

	"filtermap/internal/engine"
	"filtermap/internal/report"
	"filtermap/internal/world"
)

// The mechanism survey (Where The Light Gets In): DNS, raw-TCP and TLS
// probes of one mechanism-roster ISP per piece, on a fresh world at the
// epoch with the censoring roster enabled. Its history is how each
// ISP's mechanism deployment drifts between runs. The interesting churn
// is the migration — an ISP that kept censoring but switched mechanism
// (DNS poisoning -> SNI filtering) or product, the longitudinal signal
// the paper's one-shot survey cannot see. A timeline counts censored
// URLs.
func init() {
	register(&Plan{
		Kind:      KindMechanisms,
		StoreKind: StoreMechanisms,
		Normalize: func(req *Request) error {
			*req = Request{Kind: req.Kind, World: req.World, ISPs: req.ISPs}
			// The survey is meaningless without the censoring roster.
			if req.World.Mechanisms == nil {
				req.World.Mechanisms = &world.MechanismOptions{}
			}
			return checkNames(&req.ISPs, world.MechanismRosterISPs(), "mechanism-roster ISP")
		},
		Pieces: func(req Request) []string { return filterISPs(world.MechanismRosterISPs(), req.ISPs) },
		Exec: func(ctx context.Context, w *world.World, _ *Epoch, spec ShardSpec) (*Fragment, error) {
			targets, err := w.RunMechanismSurveyFor(ctx, spec.Pieces)
			if err != nil {
				return nil, err
			}
			rts := make([]report.MechanismTarget, 0, len(targets))
			for _, t := range targets {
				rts = append(rts, report.MechanismTarget{Country: t.Country, ISP: t.ISP, ASN: t.ASN, Results: t.Results})
			}
			return &Fragment{part: report.MechanismsJSON(rts)}, nil
		},
		Merge: mergeParts(func(_ Request, parts []report.MechanismsDoc) (any, bool, error) {
			// MechanismsJSON builds each entry purely per target, so
			// concatenation in shard (= roster) order is the whole merge.
			var doc report.MechanismsDoc
			for _, part := range parts {
				for _, m := range part.Mechanisms {
					if len(m.Degraded) > 0 {
						doc.Degraded = true
					}
					doc.Mechanisms = append(doc.Mechanisms, m)
				}
			}
			return doc, doc.Degraded, nil
		}),
		DiffKey: "mechanisms",
		Diff:    diffDocs(diffMechanisms),
		Count: countDocs(func(doc report.MechanismsDoc, add func(string, int)) {
			for _, isp := range doc.Mechanisms {
				add(isp.Country, isp.Censored)
			}
		}),
		Counts: "Censored URLs",
	})
}

// MechanismsDiff is mechanism-survey drift between two snapshots.
type MechanismsDiff struct {
	FromISPs int `json:"from_isps"`
	ToISPs   int `json:"to_isps"`
	// AddedISPs/RemovedISPs are surveyed ISPs present on only one side,
	// sorted by ISP name.
	AddedISPs   []report.MechanismISPDoc `json:"added_isps,omitempty"`
	RemovedISPs []report.MechanismISPDoc `json:"removed_isps,omitempty"`
	// Migrations lists surviving ISPs whose mechanism or product set
	// moved (ISPs present on both sides with identical findings are
	// omitted).
	Migrations []MechanismMigration `json:"migrations,omitempty"`
}

// MechanismMigration is one ISP's mechanism-deployment drift: the
// censorship stayed, but how it is enforced (or whose box enforces it)
// changed.
type MechanismMigration struct {
	ISP     string `json:"isp"`
	Country string `json:"country"`
	ASN     int    `json:"asn"`
	// MechanismsAdded/Removed are mechanism kinds seen on only one side.
	MechanismsAdded   []string `json:"mechanisms_added,omitempty"`
	MechanismsRemoved []string `json:"mechanisms_removed,omitempty"`
	// ProductsAdded/Removed are attributed products seen on only one side.
	ProductsAdded   []string `json:"products_added,omitempty"`
	ProductsRemoved []string `json:"products_removed,omitempty"`
	// CensoredFrom/To track the blocked-URL count across the two runs.
	CensoredFrom int `json:"censored_from"`
	CensoredTo   int `json:"censored_to"`
}

// ispMechanisms and ispProducts project one ISP's finding set onto the
// axes the migration tracks, in finding order.
func ispMechanisms(d report.MechanismISPDoc) []string {
	return distinct(d.Findings, func(f report.MechanismFindingDoc) string { return f.Mechanism })
}

func ispProducts(d report.MechanismISPDoc) []string {
	return distinct(d.Findings, func(f report.MechanismFindingDoc) string { return f.Product })
}

func distinct(findings []report.MechanismFindingDoc, field func(report.MechanismFindingDoc) string) []string {
	seen := map[string]bool{}
	var out []string
	for _, f := range findings {
		if v := field(f); !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

func diffMechanisms(ctx context.Context, cfg engine.Config, from, to report.MechanismsDoc) (*MechanismsDiff, error) {
	// The key starts with the ISP name, so key order is ISP-name order.
	ispKey := func(d report.MechanismISPDoc) string {
		return fmt.Sprintf("%s\x00%s\x00%d", d.ISP, d.Country, d.ASN)
	}
	ch, err := diffKeyed(ctx, cfg, "diff-mechanisms", from.Mechanisms, to.Mechanisms, ispKey, strings.Compare,
		func(f, t *report.MechanismISPDoc) (MechanismMigration, bool) {
			if f == nil || t == nil {
				return MechanismMigration{}, false
			}
			m := MechanismMigration{
				ISP: f.ISP, Country: f.Country, ASN: f.ASN,
				MechanismsAdded:   setMinus(ispMechanisms(*t), ispMechanisms(*f)),
				MechanismsRemoved: setMinus(ispMechanisms(*f), ispMechanisms(*t)),
				ProductsAdded:     setMinus(ispProducts(*t), ispProducts(*f)),
				ProductsRemoved:   setMinus(ispProducts(*f), ispProducts(*t)),
				CensoredFrom:      f.Censored,
				CensoredTo:        t.Censored,
			}
			return m, len(m.MechanismsAdded) > 0 || len(m.MechanismsRemoved) > 0 ||
				len(m.ProductsAdded) > 0 || len(m.ProductsRemoved) > 0 || m.CensoredFrom != m.CensoredTo
		})
	if err != nil {
		return nil, err
	}
	return &MechanismsDiff{
		FromISPs: len(from.Mechanisms), ToISPs: len(to.Mechanisms),
		AddedISPs: ch.Added, RemovedISPs: ch.Removed, Migrations: ch.Changed,
	}, nil
}

func (d *MechanismsDiff) summary() []string {
	var parts []string
	if n := len(d.AddedISPs); n > 0 {
		parts = append(parts, fmt.Sprintf("+%d mechanism ISPs", n))
	}
	if n := len(d.RemovedISPs); n > 0 {
		parts = append(parts, fmt.Sprintf("-%d mechanism ISPs", n))
	}
	if n := len(d.Migrations); n > 0 {
		parts = append(parts, fmt.Sprintf("%d mechanism migrations", n))
	}
	return parts
}

func (d *MechanismsDiff) render(b *strings.Builder) {
	fmt.Fprintf(b, "Mechanism survey: %d -> %d ISPs (%d added, %d removed, %d migrated)\n",
		d.FromISPs, d.ToISPs, len(d.AddedISPs), len(d.RemovedISPs), len(d.Migrations))
	ispHeaders := []string{"ISP", "CC", "AS", "Mechanisms", "Products"}
	ispCells := func(doc report.MechanismISPDoc) []string {
		return []string{
			doc.ISP, doc.Country, fmt.Sprintf("AS%d", doc.ASN),
			orDash(strings.Join(ispMechanisms(doc), ",")),
			orDash(strings.Join(ispProducts(doc), ",")),
		}
	}
	writeTable(b, "\nNewly surveyed ISPs:", ispHeaders, d.AddedISPs, ispCells)
	writeTable(b, "\nNo longer surveyed ISPs:", ispHeaders, d.RemovedISPs, ispCells)
	writeTable(b, "\nMechanism migrations:", []string{"ISP", "CC", "AS", "Mechanisms +/-", "Products +/-", "Censored"}, d.Migrations, func(m MechanismMigration) []string {
		return []string{m.ISP, m.Country, fmt.Sprintf("AS%d", m.ASN),
			plusMinus(m.MechanismsAdded, m.MechanismsRemoved),
			plusMinus(m.ProductsAdded, m.ProductsRemoved),
			fmt.Sprintf("%d -> %d", m.CensoredFrom, m.CensoredTo)}
	})
}

// plusMinus renders added/removed sets as "+a,b -c" ("-" when both empty).
func plusMinus(added, removed []string) string {
	var parts []string
	if len(added) > 0 {
		parts = append(parts, "+"+strings.Join(added, ","))
	}
	if len(removed) > 0 {
		parts = append(parts, "-"+strings.Join(removed, ","))
	}
	return orDash(strings.Join(parts, " "))
}
