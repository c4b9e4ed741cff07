package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/report"
	"filtermap/internal/world"
)

// §5 characterization (Table 4): one piece per characterization-target
// ISP, on a fresh world advanced 8 virtual hours so the YemenNet license
// window is active, exactly as fmcharacterize positions it. Documents
// are stored as "table4"; their history is characterization drift —
// matrix rows gained and lost, and per-(product, country, ASN)
// categories newly blocked or unblocked — and a timeline counts matrix
// rows.
func init() {
	register(&Plan{
		Kind:      KindCharacterize,
		StoreKind: StoreTable4,
		Advance:   8 * time.Hour,
		Normalize: func(req *Request) error {
			*req = Request{Kind: req.Kind, World: req.World, ISPs: req.ISPs}
			return checkNames(&req.ISPs, characterizationISPs(), "characterization ISP")
		},
		Pieces: func(req Request) []string { return filterISPs(characterizationISPs(), req.ISPs) },
		Exec: func(ctx context.Context, w *world.World, _ *Epoch, spec ShardSpec) (*Fragment, error) {
			reports, err := w.RunCharacterizationFor(ctx, spec.Pieces)
			if err != nil {
				return nil, err
			}
			return &Fragment{part: report.Table4JSON(reports)}, nil
		},
		Merge:   mergeParts(mergeCharacterize),
		DiffKey: "matrix",
		Diff:    diffDocs(diffMatrix),
		Count: countDocs(func(doc report.Table4Doc, add func(string, int)) {
			for _, row := range doc.Rows {
				add(row.Country, 1)
			}
		}),
		Counts: "Matrix rows",
	})
}

// mergeCharacterize rebuilds a Table4Doc from the shards' documents:
// the renderer's catalog columns, rows re-sorted globally by (product,
// ASN) — the Matrix order, with unique keys across targets — and
// per-target reports concatenated in shard (= target) order.
func mergeCharacterize(_ Request, parts []report.Table4Doc) (any, bool, error) {
	doc := report.Table4JSON(nil)
	for _, part := range parts {
		doc.Rows = append(doc.Rows, part.Rows...)
		for _, rep := range part.Reports {
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

// MatrixDiff is characterization drift: Table 4 compared across two runs.
type MatrixDiff struct {
	FromRows int `json:"from_rows"`
	ToRows   int `json:"to_rows"`
	// AddedRows/RemovedRows are (product, country, ASN) rows present on
	// only one side.
	AddedRows   []report.Table4RowDoc `json:"added_rows,omitempty"`
	RemovedRows []report.Table4RowDoc `json:"removed_rows,omitempty"`
	// Changed lists surviving rows whose blocked-category set moved.
	Changed []MatrixRowChange `json:"changed,omitempty"`
}

// MatrixRowChange is one row's category drift.
type MatrixRowChange struct {
	Product string `json:"product"`
	Country string `json:"country"`
	ASN     int    `json:"asn"`
	// NewlyBlocked/Unblocked are category codes that flipped.
	NewlyBlocked []string `json:"newly_blocked,omitempty"`
	Unblocked    []string `json:"unblocked,omitempty"`
}

func diffMatrix(ctx context.Context, cfg engine.Config, from, to report.Table4Doc) (*MatrixDiff, error) {
	rowKey := func(r report.Table4RowDoc) string {
		return fmt.Sprintf("%s\x00%s\x00%d", r.Product, r.Country, r.ASN)
	}
	ch, err := diffKeyed(ctx, cfg, "diff-matrix", from.Rows, to.Rows, rowKey, strings.Compare,
		func(f, t *report.Table4RowDoc) (MatrixRowChange, bool) {
			if f == nil || t == nil {
				return MatrixRowChange{}, false
			}
			c := MatrixRowChange{
				Product: f.Product, Country: f.Country, ASN: f.ASN,
				NewlyBlocked: setMinus(t.Blocked, f.Blocked),
				Unblocked:    setMinus(f.Blocked, t.Blocked),
			}
			return c, len(c.NewlyBlocked) > 0 || len(c.Unblocked) > 0
		})
	if err != nil {
		return nil, err
	}
	return &MatrixDiff{
		FromRows: len(from.Rows), ToRows: len(to.Rows),
		AddedRows: ch.Added, RemovedRows: ch.Removed, Changed: ch.Changed,
	}, nil
}

func (d *MatrixDiff) summary() []string { return []string{"matrix changed"} }

func (d *MatrixDiff) render(b *strings.Builder) {
	fmt.Fprintf(b, "Characterization matrix: %d -> %d rows (%d added, %d removed, %d changed)\n",
		d.FromRows, d.ToRows, len(d.AddedRows), len(d.RemovedRows), len(d.Changed))
	rowHeaders := []string{"Product", "CC", "AS", "Blocked"}
	rowCells := func(r report.Table4RowDoc) []string {
		return []string{r.Product, r.Country, fmt.Sprintf("AS%d", r.ASN), orDash(strings.Join(r.Blocked, ","))}
	}
	writeTable(b, "\nAdded rows:", rowHeaders, d.AddedRows, rowCells)
	writeTable(b, "\nRemoved rows:", rowHeaders, d.RemovedRows, rowCells)
	writeTable(b, "\nCategory drift:", []string{"Product", "CC", "AS", "Newly blocked", "Unblocked"}, d.Changed, func(c MatrixRowChange) []string {
		return []string{c.Product, c.Country, fmt.Sprintf("AS%d", c.ASN),
			orDash(strings.Join(c.NewlyBlocked, ",")), orDash(strings.Join(c.Unblocked, ","))}
	})
}
