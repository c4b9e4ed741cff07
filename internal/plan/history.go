package plan

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/report"
	"filtermap/internal/store"
)

// This file is the history of stored plan documents: what changed
// between two snapshots of one kind, and how a per-country count moves
// across a snapshot range. The paper's §3 identification is repeatable —
// installations appear, move ASNs, upgrade products and vanish between
// runs — and §5's Table 4 drifts as ISPs reconfigure filters. Each
// descriptor says how its kind's documents diff (Plan.Diff, whose
// section renders and summarises itself) and what its timeline counts
// (Plan.Count); this file holds the kind-independent envelope. Diffs
// fan out one engine item per compared entry under the kind's stage
// ("diff-installs", ...), timelines one per snapshot under "timeline",
// so per-stage counters land in the same Stats surface as the pipelines.

// Input is one snapshot to analyze: its store metadata plus the raw body.
type Input struct {
	Meta store.Meta
	Body json.RawMessage
}

// SnapRef identifies one side of a diff in outputs.
type SnapRef struct {
	Seq    uint64    `json:"seq"`
	ID     string    `json:"id"`
	Kind   string    `json:"kind"`
	At     time.Time `json:"at"`
	Config string    `json:"config,omitempty"`
}

func refOf(m store.Meta) SnapRef {
	return SnapRef{Seq: m.Seq, ID: m.ID, Kind: m.Kind, At: m.At, Config: m.Config}
}

func (r SnapRef) label() string {
	return fmt.Sprintf("seq %d  id %s  at %s", r.Seq, r.ID, r.At.UTC().Format(time.RFC3339))
}

// Section is one kind's diff section (*InstallDiff for identify,
// *MatrixDiff for table4, *DiscoveryDiff, *MechanismsDiff).
type Section interface {
	// render writes the section's text below the diff header.
	render(b *strings.Builder)
	// summary lists the section's churn as short log phrases.
	summary() []string
}

// Diff is the churn between two snapshots of the same kind.
type Diff struct {
	From SnapRef
	To   SnapRef
	// Section is the kind's own diff. It marshals under the kind's
	// DiffKey ("installs", "matrix", "discovery" or "mechanisms").
	Section Section
}

// MarshalJSON writes from, to, then the section under its kind's key.
func (d *Diff) MarshalJSON() ([]byte, error) {
	out, err := json.Marshal(struct {
		From SnapRef `json:"from"`
		To   SnapRef `json:"to"`
	}{d.From, d.To})
	if err != nil || d.Section == nil {
		return out, err
	}
	p, ok := ForStoreKind(d.From.Kind)
	if !ok {
		return nil, fmt.Errorf("plan: marshal diff of unknown kind %q", d.From.Kind)
	}
	section, err := json.Marshal(d.Section)
	if err != nil {
		return nil, err
	}
	out = append(out[:len(out)-1], `,"`+p.DiffKey+`":`...)
	return append(append(out, section...), '}'), nil
}

// Render renders the diff as text, in the ASCII-table style of the
// paper's tables: the `fmhist diff` output.
func (d *Diff) Render() string {
	var b strings.Builder
	fmt.Fprintf(&b, "Longitudinal diff (%s)\n", d.From.Kind)
	fmt.Fprintf(&b, "  from: %s\n", d.From.label())
	fmt.Fprintf(&b, "  to:   %s\n", d.To.label())
	if d.Section != nil {
		b.WriteByte('\n')
		d.Section.render(&b)
	}
	return b.String()
}

// Summary compresses the diff into one log phrase ("+1 installs,
// 2 changed"), or "changed" when the section names no churn.
func (d *Diff) Summary() string {
	var parts []string
	if d.Section != nil {
		parts = d.Section.summary()
	}
	if len(parts) == 0 {
		return "changed"
	}
	return strings.Join(parts, ", ")
}

// Timeline is per-country counts across a snapshot range.
type Timeline struct {
	// Countries is the union of country codes, sorted.
	Countries []string        `json:"countries"`
	Points    []TimelinePoint `json:"points"`
}

// TimelinePoint is one snapshot's counts.
type TimelinePoint struct {
	Ref   SnapRef `json:"ref"`
	Total int     `json:"total"`
	// ByCountry maps country code -> count.
	ByCountry map[string]int `json:"by_country"`
}

// Render renders the timeline as a per-country count table, one row per
// snapshot, titled by what the first snapshot's kind counts.
func (tl *Timeline) Render() string {
	title := "Counts over time:"
	if len(tl.Points) > 0 {
		if p, ok := ForStoreKind(tl.Points[0].Ref.Kind); ok {
			title = p.Counts + " over time:"
		}
	}
	t := &report.Table{
		Title:   title,
		Headers: append([]string{"Seq", "At", "Total"}, tl.Countries...),
	}
	for _, pt := range tl.Points {
		row := []string{
			fmt.Sprint(pt.Ref.Seq),
			pt.Ref.At.UTC().Format("2006-01-02"),
			fmt.Sprint(pt.Total),
		}
		for _, cc := range tl.Countries {
			row = append(row, fmt.Sprint(pt.ByCountry[cc]))
		}
		t.AddRow(row...)
	}
	return t.String()
}

// DiffEngine computes diffs and timelines over stored snapshots. The
// zero value works; set Config to share a worker pool / Stats registry
// with the rest of the system.
type DiffEngine struct {
	Config engine.Config
}

// NewDiffEngine builds a DiffEngine from engine options.
func NewDiffEngine(opts ...engine.Option) *DiffEngine {
	return &DiffEngine{Config: engine.NewConfig(opts...)}
}

// Diff compares two snapshots of the same kind.
func (e *DiffEngine) Diff(ctx context.Context, from, to Input) (*Diff, error) {
	if from.Meta.Kind != to.Meta.Kind {
		return nil, fmt.Errorf("plan: cannot diff kind %q against %q", from.Meta.Kind, to.Meta.Kind)
	}
	p, ok := ForStoreKind(from.Meta.Kind)
	if !ok {
		return nil, fmt.Errorf("plan: unsupported snapshot kind %q", from.Meta.Kind)
	}
	section, err := p.Diff(ctx, e.Config, from.Body, to.Body)
	if err != nil {
		return nil, err
	}
	return &Diff{From: refOf(from.Meta), To: refOf(to.Meta), Section: section}, nil
}

// Timeline computes per-country counts across snapshots, in input
// order. Each snapshot counts its own kind's unit: installations,
// matrix rows, novel blocked URLs or censored URLs — each kind's "how
// much filtering is visible here" measure.
func (e *DiffEngine) Timeline(ctx context.Context, inputs []Input) (*Timeline, error) {
	points, err := engine.Map(ctx, e.Config, "timeline", inputs, func(_ context.Context, in Input) (TimelinePoint, error) {
		p, ok := ForStoreKind(in.Meta.Kind)
		if !ok {
			return TimelinePoint{}, fmt.Errorf("plan: timeline cannot count kind %q (seq %d)", in.Meta.Kind, in.Meta.Seq)
		}
		pt := TimelinePoint{Ref: refOf(in.Meta), ByCountry: map[string]int{}}
		err := p.Count(in.Body, func(country string, n int) {
			pt.Total += n
			pt.ByCountry[country] += n
		})
		return pt, err
	})
	if err != nil {
		return nil, err
	}
	tl := &Timeline{Points: points}
	seen := map[string]bool{}
	for _, pt := range points {
		for cc := range pt.ByCountry {
			if !seen[cc] {
				seen[cc] = true
				tl.Countries = append(tl.Countries, cc)
			}
		}
	}
	sort.Strings(tl.Countries)
	return tl, nil
}

// decode parses a stored document.
func decode[D any](body json.RawMessage) (D, error) {
	var doc D
	if err := json.Unmarshal(body, &doc); err != nil {
		return doc, fmt.Errorf("plan: decode %T snapshot: %w", doc, err)
	}
	return doc, nil
}

// diffDocs adapts a diff over decoded documents to Plan.Diff.
func diffDocs[D any, S Section](diff func(ctx context.Context, cfg engine.Config, from, to D) (S, error)) func(context.Context, engine.Config, json.RawMessage, json.RawMessage) (Section, error) {
	return func(ctx context.Context, cfg engine.Config, fromBody, toBody json.RawMessage) (Section, error) {
		from, err := decode[D](fromBody)
		if err != nil {
			return nil, err
		}
		to, err := decode[D](toBody)
		if err != nil {
			return nil, err
		}
		section, err := diff(ctx, cfg, from, to)
		if err != nil {
			return nil, err
		}
		return section, nil
	}
}

// countDocs adapts a count over a decoded document to Plan.Count.
func countDocs[D any](count func(doc D, add func(country string, n int))) func(json.RawMessage, func(string, int)) error {
	return func(body json.RawMessage, add func(string, int)) error {
		doc, err := decode[D](body)
		if err != nil {
			return err
		}
		count(doc, add)
		return nil
	}
}

// churn is how one keyed entry list moved between two documents. Every
// list is in key order.
type churn[E, C any] struct {
	Added, Removed []E
	Changed        []C
	Unchanged      int
}

// diffKeyed compares two entry lists by key: it indexes both sides,
// sorts the union of keys by order, and runs one engine item per key
// under stage. compare sees the key's entry on each side — nil on a side
// the key is absent from — and reports whether the key changed. A
// changed key is filed as Changed; any other is Added, Removed or
// Unchanged by which sides hold it.
func diffKeyed[E, C any](ctx context.Context, cfg engine.Config, stage string, from, to []E,
	key func(E) string, order func(a, b string) int, compare func(f, t *E) (C, bool)) (churn[E, C], error) {
	index := func(entries []E) map[string]E {
		m := make(map[string]E, len(entries))
		for _, e := range entries {
			m[key(e)] = e
		}
		return m
	}
	fromBy, toBy := index(from), index(to)
	keys := make([]string, 0, len(fromBy)+len(toBy))
	for k := range fromBy {
		keys = append(keys, k)
	}
	for k := range toBy {
		if _, ok := fromBy[k]; !ok {
			keys = append(keys, k)
		}
	}
	slices.SortFunc(keys, order)

	type verdict struct {
		from, to *E
		change   *C
	}
	verdicts, err := engine.Map(ctx, cfg, stage, keys, func(_ context.Context, k string) (verdict, error) {
		var v verdict
		if f, ok := fromBy[k]; ok {
			v.from = &f
		}
		if t, ok := toBy[k]; ok {
			v.to = &t
		}
		if c, changed := compare(v.from, v.to); changed {
			v.change = &c
		}
		return v, nil
	})
	if err != nil {
		return churn[E, C]{}, err
	}
	var ch churn[E, C]
	for _, v := range verdicts {
		switch {
		case v.change != nil:
			ch.Changed = append(ch.Changed, *v.change)
		case v.from == nil:
			ch.Added = append(ch.Added, *v.to)
		case v.to == nil:
			ch.Removed = append(ch.Removed, *v.from)
		default:
			ch.Unchanged++
		}
	}
	return ch, nil
}

// setMinus returns sorted members of a not in b.
func setMinus(a, b []string) []string {
	in := make(map[string]bool, len(b))
	for _, s := range b {
		in[s] = true
	}
	var out []string
	for _, s := range a {
		if !in[s] {
			out = append(out, s)
		}
	}
	sort.Strings(out)
	return out
}

// writeTable writes rows as a titled table, or nothing when there are
// none.
func writeTable[E any](b *strings.Builder, title string, headers []string, rows []E, cells func(E) []string) {
	if len(rows) == 0 {
		return
	}
	t := &report.Table{Title: title, Headers: headers}
	for _, r := range rows {
		t.AddRow(cells(r)...)
	}
	b.WriteString(t.String())
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}
