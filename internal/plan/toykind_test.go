package plan

import (
	"context"
	"encoding/json"
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/simclock"
	"filtermap/internal/store"
	"filtermap/internal/world"
)

// A toy fifth kind, declared entirely in this file: one "tally" entry per
// requested piece, counted Rounds times. Registering it and running it
// end to end — Execute, the snapshot store, Diff and Timeline — needs no
// edit anywhere else, which is what "a kind is one file" means. Its
// shard fragment is its own type too, merged through mergeParts.

// tallyPart is the toy kind's fragment: the pieces one shard counted.
type tallyPart struct {
	Names []string `json:"names"`
}

type tallyDoc struct {
	Entries []tallyEntry `json:"entries"`
}

type tallyEntry struct {
	Name    string `json:"name"`
	Country string `json:"country"`
	Count   int    `json:"count"`
}

type tallyDiff struct {
	Added   []tallyEntry `json:"added,omitempty"`
	Removed []tallyEntry `json:"removed,omitempty"`
	Changed []string     `json:"changed,omitempty"`
}

func (d *tallyDiff) summary() []string {
	return []string{fmt.Sprintf("+%d -%d ~%d tallies", len(d.Added), len(d.Removed), len(d.Changed))}
}

func (d *tallyDiff) render(b *strings.Builder) {
	fmt.Fprintf(b, "Tallies: %d added, %d removed, changed %s\n", len(d.Added), len(d.Removed), strings.Join(d.Changed, ","))
}

func registerTally(t *testing.T) *Plan {
	t.Helper()
	p := &Plan{
		Kind:      "tally",
		StoreKind: "tally-doc",
		Normalize: func(req *Request) error {
			*req = Request{Kind: req.Kind, ISPs: sortDedupe(req.ISPs), Rounds: req.Rounds}
			return nil
		},
		Pieces: func(req Request) []string { return req.ISPs },
		Exec: func(_ context.Context, _ *world.World, _ *Epoch, spec ShardSpec) (*Fragment, error) {
			return &Fragment{part: tallyPart{Names: spec.Pieces}}, nil
		},
		Merge: mergeParts(func(req Request, parts []tallyPart) (any, bool, error) {
			var doc tallyDoc
			for _, part := range parts {
				for _, name := range part.Names {
					doc.Entries = append(doc.Entries, tallyEntry{Name: name, Country: strings.ToUpper(name), Count: req.Rounds})
				}
			}
			return doc, false, nil
		}),
		DiffKey: "tallies",
		Diff: diffDocs(func(ctx context.Context, cfg engine.Config, from, to tallyDoc) (*tallyDiff, error) {
			ch, err := diffKeyed(ctx, cfg, "diff-tallies", from.Entries, to.Entries,
				func(e tallyEntry) string { return e.Name }, strings.Compare,
				func(f, t *tallyEntry) (string, bool) {
					if f == nil || t == nil {
						return "", false
					}
					return f.Name, f.Count != t.Count
				})
			if err != nil {
				return nil, err
			}
			return &tallyDiff{Added: ch.Added, Removed: ch.Removed, Changed: ch.Changed}, nil
		}),
		Count: countDocs(func(doc tallyDoc, add func(string, int)) {
			for _, e := range doc.Entries {
				add(e.Country, e.Count)
			}
		}),
		Counts: "Tallies",
	}
	register(p)
	t.Cleanup(func() {
		delete(byKind, p.Kind)
		delete(byStoreKind, p.StoreKind)
	})
	return p
}

func TestToyKindIsOneFile(t *testing.T) {
	p := registerTally(t)
	if got := StoreKinds(); !strings.Contains(strings.Join(got, " "), "tally-doc") {
		t.Fatalf("StoreKinds() = %v, want the toy kind listed", got)
	}
	ctx := context.Background()
	st, err := store.Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()

	// Two runs: "a" disappears, "c" appears, "b" is counted twice.
	var inputs []Input
	for i, req := range []Request{
		{Kind: "tally", ISPs: []string{"b", "a"}, Rounds: 1},
		{Kind: "tally", ISPs: []string{"c", "b", "b"}, Rounds: 2},
	} {
		if err := Normalize(&req); err != nil {
			t.Fatal(err)
		}
		doc, _, err := Execute(ctx, nil, req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		// One shard per piece, each fragment through its wire form,
		// merges to the same document.
		specs, err := Split(req)
		if err != nil {
			t.Fatal(err)
		}
		frags := make([]*Fragment, len(specs))
		for j, spec := range specs {
			if frags[j], err = p.Exec(ctx, nil, nil, spec); err != nil {
				t.Fatal(err)
			}
		}
		if wireDoc, _, err := Merge(req, viaWire(t, frags)); err != nil || !reflect.DeepEqual(wireDoc, doc) {
			t.Fatalf("run %d: wire-form per-piece merge = %+v, %v; want %+v", i, wireDoc, err, doc)
		}
		if _, err := st.Append(store.Snapshot{
			Kind: p.StoreKind, At: simclock.Epoch.Add(time.Duration(i) * 24 * time.Hour), Config: "cfg", Body: body,
		}); err != nil {
			t.Fatal(err)
		}
		meta, stored, err := st.Get(fmt.Sprint(i + 1))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, Input{Meta: meta, Body: stored})
	}

	stats := engine.NewStats()
	e := NewDiffEngine(engine.WithStats(stats))
	d, err := e.Diff(ctx, inputs[0], inputs[1])
	if err != nil {
		t.Fatal(err)
	}
	td, ok := d.Section.(*tallyDiff)
	if !ok || len(td.Added) != 1 || td.Added[0].Name != "c" || len(td.Removed) != 1 || td.Removed[0].Name != "a" ||
		len(td.Changed) != 1 || td.Changed[0] != "b" {
		t.Fatalf("toy diff = %+v", d.Section)
	}
	js, err := json.Marshal(d)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(js), `,"tallies":{"added":[{"name":"c"`) {
		t.Fatalf("diff JSON lacks the kind's section key: %s", js)
	}
	if text := d.Render(); !strings.Contains(text, "Longitudinal diff (tally-doc)") || !strings.Contains(text, "Tallies: 1 added, 1 removed, changed b") {
		t.Fatalf("Render() =\n%s", text)
	}
	if got := d.Summary(); got != "+1 -1 ~1 tallies" {
		t.Fatalf("Summary() = %q", got)
	}
	found := false
	for _, s := range stats.Snapshot().Stages {
		found = found || (s.Stage == "diff-tallies" && s.Successes == 3)
	}
	if !found {
		t.Fatalf("engine stats lack the toy diff stage over 3 keys: %+v", stats.Snapshot().Stages)
	}

	tl, err := e.Timeline(ctx, inputs)
	if err != nil {
		t.Fatal(err)
	}
	if tl.Points[0].Total != 2 || tl.Points[1].Total != 4 || tl.Points[1].ByCountry["C"] != 2 ||
		strings.Join(tl.Countries, ",") != "A,B,C" {
		t.Fatalf("toy timeline = %+v", tl)
	}
	if text := tl.Render(); !strings.HasPrefix(text, "Tallies over time:\n") {
		t.Fatalf("timeline Render() =\n%s", text)
	}
}
