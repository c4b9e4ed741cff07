package plan

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/report"
	"filtermap/internal/urllist"
	"filtermap/internal/world"
)

// Search-based discovery (FilteredWeb): one crawl per
// characterization-target ISP, positioned like characterization (fresh
// world at +8h) so results match fmdiscover. Its history is how the
// crawl-discovered blocked-URL set drifts, per target and in the
// aggregated synthetic "discovered" list, and a timeline counts novel
// blocked URLs.
func init() {
	register(&Plan{
		Kind:      KindDiscover,
		StoreKind: StoreDiscovery,
		Advance:   8 * time.Hour,
		Normalize: func(req *Request) error {
			*req = Request{Kind: req.Kind, World: req.World, ISPs: req.ISPs, Rounds: req.Rounds, Budget: req.Budget}
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
		Exec: func(ctx context.Context, w *world.World, _ *Epoch, spec ShardSpec) (*Fragment, error) {
			targets, err := w.RunDiscovery(ctx, world.DiscoveryOptions{
				ISPs:   spec.Pieces,
				Rounds: spec.Rounds,
				Budget: spec.Budget,
			})
			if err != nil {
				return nil, err
			}
			return &Fragment{part: report.DiscoveryJSON(spec.Rounds, spec.Budget, targets, world.DiscoveredList(targets))}, nil
		},
		Merge:   mergeParts(mergeDiscover),
		DiffKey: "discovery",
		Diff:    diffDocs(diffDiscovery),
		Count: countDocs(func(doc report.DiscoveryDoc, add func(string, int)) {
			for _, t := range doc.Targets {
				for _, f := range t.Findings {
					if f.Novel {
						add(t.Country, 1)
					}
				}
			}
		}),
		Counts: "Novel blocked URLs",
	})
}

// mergeDiscover rebuilds a DiscoveryDoc from the shards' documents:
// targets concatenated in shard order, and the renderer's effective caps
// and synthetic "discovered" list reassembled from the novel findings —
// urllist.DiscoveredList dedupes by URL and sorts, so the result is
// independent of which shard found what first.
func mergeDiscover(req Request, parts []report.DiscoveryDoc) (any, bool, error) {
	var targets []report.DiscoveryTargetDoc
	var novel []urllist.Entry
	for _, part := range parts {
		for _, t := range part.Targets {
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

// DiscoveryDiff is discovery drift between two snapshots.
type DiscoveryDiff struct {
	FromTargets int `json:"from_targets"`
	ToTargets   int `json:"to_targets"`
	// AddedDiscovered/RemovedDiscovered are synthetic-list entries present
	// on only one side, sorted by URL.
	AddedDiscovered   []report.DiscoveredURLDoc `json:"added_discovered,omitempty"`
	RemovedDiscovered []report.DiscoveredURLDoc `json:"removed_discovered,omitempty"`
	// Targets lists per-target novel-URL churn (targets present on both
	// sides with an unchanged novel set are omitted).
	Targets []DiscoveryTargetChange `json:"targets,omitempty"`
}

// DiscoveryTargetChange is one target's novel-finding drift.
type DiscoveryTargetChange struct {
	Country string `json:"country"`
	ISP     string `json:"isp"`
	ASN     int    `json:"asn"`
	// NewlyFound/NoLongerFound are novel blocked URLs seen on only one
	// side, sorted.
	NewlyFound    []string `json:"newly_found,omitempty"`
	NoLongerFound []string `json:"no_longer_found,omitempty"`
}

// novelURLs lists a target's novel findings (none for a nil target).
func novelURLs(t *report.DiscoveryTargetDoc) []string {
	if t == nil {
		return nil
	}
	var out []string
	for _, f := range t.Findings {
		if f.Novel {
			out = append(out, f.URL)
		}
	}
	return out
}

func diffDiscovery(ctx context.Context, cfg engine.Config, from, to report.DiscoveryDoc) (*DiscoveryDiff, error) {
	targetKey := func(t report.DiscoveryTargetDoc) string {
		return fmt.Sprintf("%s\x00%s\x00%d", t.Country, t.ISP, t.ASN)
	}
	// A target on one side only churns its whole novel set, and is
	// listed even when that set is empty.
	ch, err := diffKeyed(ctx, cfg, "diff-discovery", from.Targets, to.Targets, targetKey, strings.Compare,
		func(f, t *report.DiscoveryTargetDoc) (DiscoveryTargetChange, bool) {
			ref := t
			if ref == nil {
				ref = f
			}
			c := DiscoveryTargetChange{
				Country: ref.Country, ISP: ref.ISP, ASN: ref.ASN,
				NewlyFound:    setMinus(novelURLs(t), novelURLs(f)),
				NoLongerFound: setMinus(novelURLs(f), novelURLs(t)),
			}
			return c, f == nil || t == nil || len(c.NewlyFound) > 0 || len(c.NoLongerFound) > 0
		})
	if err != nil {
		return nil, err
	}
	return &DiscoveryDiff{
		FromTargets: len(from.Targets), ToTargets: len(to.Targets),
		AddedDiscovered:   discoveredMinus(to.Discovered, from.Discovered),
		RemovedDiscovered: discoveredMinus(from.Discovered, to.Discovered),
		Targets:           ch.Changed,
	}, nil
}

// discoveredMinus returns members of a (by URL) not in b, sorted by URL.
func discoveredMinus(a, b []report.DiscoveredURLDoc) []report.DiscoveredURLDoc {
	in := make(map[string]bool, len(b))
	for _, e := range b {
		in[e.URL] = true
	}
	var out []report.DiscoveredURLDoc
	for _, e := range a {
		if !in[e.URL] {
			out = append(out, e)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].URL < out[j].URL })
	return out
}

func (d *DiscoveryDiff) summary() []string {
	var parts []string
	if n := len(d.AddedDiscovered); n > 0 {
		parts = append(parts, fmt.Sprintf("+%d discovered URLs", n))
	}
	if n := len(d.RemovedDiscovered); n > 0 {
		parts = append(parts, fmt.Sprintf("-%d discovered URLs", n))
	}
	return parts
}

func (d *DiscoveryDiff) render(b *strings.Builder) {
	fmt.Fprintf(b, "Discovered blocked URLs: %d added, %d removed (%d -> %d targets)\n",
		len(d.AddedDiscovered), len(d.RemovedDiscovered), d.FromTargets, d.ToTargets)
	urlCells := func(e report.DiscoveredURLDoc) []string { return []string{e.URL, orDash(e.Category)} }
	writeTable(b, "\nNewly discovered:", []string{"URL", "Category"}, d.AddedDiscovered, urlCells)
	writeTable(b, "\nNo longer discovered:", []string{"URL", "Category"}, d.RemovedDiscovered, urlCells)
	writeTable(b, "\nPer-target novel-URL churn:", []string{"ISP", "CC", "AS", "Newly found", "No longer found"}, d.Targets, func(c DiscoveryTargetChange) []string {
		return []string{c.ISP, c.Country, fmt.Sprintf("AS%d", c.ASN),
			orDash(strings.Join(c.NewlyFound, ",")), orDash(strings.Join(c.NoLongerFound, ","))}
	})
}
