// Command fmhist is the longitudinal CLI: it records pipeline snapshots
// into an append-only store and answers "what changed?" across them.
//
// Usage:
//
//	fmhist -dir DIR record [-kind K] [-note TEXT]
//	                       (-in report.json | -run) [-advance 168h]
//	                       [-seed N] [-workers N] [-hide-consoles] [-scrub-headers]
//	                       [-rounds N] [-budget N]
//	fmhist -dir DIR list [-kind K] [-json]
//	fmhist -dir DIR show [-json] SELECTOR
//	fmhist -dir DIR diff [-json] [-workers N] FROM TO
//	fmhist -dir DIR timeline [-kind K] [-json]
//	fmhist -dir DIR compact
//
// A subcommand's flags go before its selectors: flag parsing stops at
// the first selector. K is a snapshot kind from the plan registry
// (identify by default).
// record either ingests a JSON document produced by fmscan/fmrepro -json
// (-in) or builds the simulated world and runs the pipeline itself
// (-run), optionally advancing the virtual clock first (-advance) so
// successive records carry distinct virtual timestamps. Snapshots are
// content-addressed: re-recording an unchanged world is a no-op dedupe.
//
// Selectors accept a sequence number, a content-ID prefix, "latest", or
// "latest:<kind>".
//
// Walkthrough — track a week of churn:
//
//	fmhist -dir hist record -run                      # day 0 baseline
//	fmhist -dir hist record -run -advance 168h        # day 7 re-scan
//	fmhist -dir hist diff 1 latest                    # what changed?
//	fmhist -dir hist timeline                         # Figure 1 over time
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"filtermap"
	"filtermap/internal/plan"
	"filtermap/internal/simclock"
	"filtermap/internal/store"
	"filtermap/internal/version"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fmhist: ")
	dir := flag.String("dir", "", "snapshot store directory (required)")
	checkVersion := version.Flag(flag.CommandLine, "fmhist")
	flag.Usage = usage
	flag.Parse()
	checkVersion()
	if *dir == "" || flag.NArg() == 0 {
		usage()
		os.Exit(2)
	}
	cmd, args := flag.Arg(0), flag.Args()[1:]
	s, err := store.Open(*dir)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	if n := s.RecoveredBytes(); n > 0 {
		fmt.Fprintf(os.Stderr, "fmhist: recovered store: truncated %d corrupt tail bytes\n", n)
	}

	switch cmd {
	case "record":
		err = record(s, args)
	case "list":
		err = list(s, args)
	case "show":
		err = show(s, args)
	case "diff":
		err = diff(s, args)
	case "timeline":
		err = timeline(s, args)
	case "compact":
		err = s.Compact()
	default:
		log.Printf("unknown subcommand %q", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		log.Fatal(err)
	}
}

// storeKinds lists the registry's snapshot kinds for help text.
var storeKinds = strings.Join(plan.StoreKinds(), ", ")

func usage() {
	fmt.Fprintf(os.Stderr, `usage: fmhist -dir DIR <subcommand> [flags]

subcommands:
  record    persist a pipeline snapshot (-run to execute, -in FILE to ingest)
  list      list stored snapshots (-kind K restricts to one kind)
  show      print one snapshot (show [-json] SELECTOR)
  diff      compare two snapshots (diff [-json] [-workers N] FROM TO)
  timeline  per-country counts across snapshots of one kind (-kind K,
            default %s)
  compact   rewrite the log, deduplicating repeated content

snapshot kinds: %s

selectors (show, diff) follow the subcommand's flags; each accepts
  N              a decimal sequence number          e.g.  3
  HEXPREFIX      a content-ID prefix, 4+ hex chars  e.g.  ac06d8
  latest         the newest snapshot of any kind
  latest:KIND    the newest snapshot of one kind    e.g.  latest:table4
`, plan.StoreIdentify, storeKinds)
}

// record persists one snapshot, from a file or a fresh pipeline run.
func record(s *store.Store, args []string) error {
	fs := flag.NewFlagSet("record", flag.ExitOnError)
	kind := fs.String("kind", plan.StoreIdentify, "snapshot kind: "+storeKinds)
	note := fs.String("note", "", "free-form annotation")
	in := fs.String("in", "", "ingest a JSON document (fmscan/fmrepro -json output)")
	run := fs.Bool("run", false, "build the world and run the pipeline")
	advance := fs.Duration("advance", 0, "advance the virtual clock before running (with -run)")
	seed := fs.Int64("seed", 0, "world seed (with -run)")
	workers := fs.Int("workers", 0, "engine worker-pool size (with -run; 0 = default)")
	hideConsoles := fs.Bool("hide-consoles", false, "evasion: hide product consoles (with -run)")
	scrubHeaders := fs.Bool("scrub-headers", false, "evasion: scrub brand headers (with -run)")
	rounds := fs.Int("rounds", 0, "discovery crawl rounds (with -run -kind discovery; 0 = default)")
	budget := fs.Int("budget", 0, "discovery probe budget (with -run -kind discovery; 0 = default)")
	fs.Parse(args) //nolint:errcheck // ExitOnError
	p, ok := plan.ForStoreKind(*kind)
	if !ok {
		return fmt.Errorf("unsupported kind %q (%s)", *kind, storeKinds)
	}
	if (*in == "") == !*run {
		return fmt.Errorf("record needs exactly one of -in or -run")
	}

	var body []byte
	var at time.Time
	var config string
	if *in != "" {
		var err error
		body, err = os.ReadFile(*in)
		if err != nil {
			return err
		}
		at = simclock.Epoch
		config = filtermap.ConfigHash(filtermap.Options{})
	} else {
		req := plan.Request{
			Kind: p.Kind,
			World: filtermap.Options{
				Seed:         *seed,
				HideConsoles: *hideConsoles,
				ScrubHeaders: *scrubHeaders,
			},
			Rounds: *rounds,
			Budget: *budget,
		}
		if err := plan.Normalize(&req); err != nil {
			return err
		}
		var engOpts []filtermap.Option
		if *workers > 0 {
			engOpts = append(engOpts, filtermap.WithWorkers(*workers))
		}
		w, err := filtermap.NewWorld(req.World, engOpts...)
		if err != nil {
			return err
		}
		defer w.Close()
		w.Clock.Advance(*advance)
		if p.Advance > 0 {
			w.Clock.Advance(p.Advance)
		}
		doc, _, err := plan.Execute(context.Background(), w, req)
		if err != nil {
			return err
		}
		if body, err = json.Marshal(doc); err != nil {
			return err
		}
		at = w.Clock.Now()
		config = filtermap.ConfigHash(req.World)
	}

	meta, err := s.Append(store.Snapshot{
		Kind:   *kind,
		At:     at,
		Config: config,
		Note:   *note,
		Body:   body,
	})
	if err != nil {
		return err
	}
	if meta.Deduped {
		fmt.Printf("unchanged: deduped onto seq %d (id %s)\n", meta.Seq, meta.ID)
		return nil
	}
	fmt.Printf("recorded seq %d  id %s  kind %s  at %s  (%d bytes)\n",
		meta.Seq, meta.ID, meta.Kind, meta.At.UTC().Format(time.RFC3339), meta.Bytes)
	return nil
}

func list(s *store.Store, args []string) error {
	fs := flag.NewFlagSet("list", flag.ExitOnError)
	kind := fs.String("kind", "", "restrict to one snapshot kind")
	asJSON := fs.Bool("json", false, "emit JSON")
	fs.Parse(args) //nolint:errcheck
	metas := s.List(store.Query{Kind: *kind})
	if *asJSON {
		if metas == nil {
			metas = []store.Meta{}
		}
		return json.NewEncoder(os.Stdout).Encode(map[string]any{"snapshots": metas})
	}
	if len(metas) == 0 {
		fmt.Println("no snapshots")
		return nil
	}
	fmt.Printf("%-5s %-18s %-9s %-20s %-9s %s\n", "SEQ", "ID", "KIND", "AT", "BYTES", "NOTE")
	for _, m := range metas {
		fmt.Printf("%-5d %-18s %-9s %-20s %-9d %s\n",
			m.Seq, m.ID, m.Kind, m.At.UTC().Format(time.RFC3339), m.Bytes, m.Note)
	}
	return nil
}

func show(s *store.Store, args []string) error {
	fs := flag.NewFlagSet("show", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit {meta, body} JSON (default prints the body)")
	fs.Parse(args) //nolint:errcheck
	sel, err := selectors(fs, 1, "show needs one selector")
	if err != nil {
		return err
	}
	meta, body, err := s.Get(sel[0])
	if err != nil {
		return err
	}
	if *asJSON {
		return json.NewEncoder(os.Stdout).Encode(map[string]any{"meta": meta, "body": json.RawMessage(body)})
	}
	fmt.Printf("seq %d  id %s  kind %s  at %s  config %s\n",
		meta.Seq, meta.ID, meta.Kind, meta.At.UTC().Format(time.RFC3339), meta.Config)
	if meta.Note != "" {
		fmt.Printf("note: %s\n", meta.Note)
	}
	os.Stdout.Write(body) //nolint:errcheck
	fmt.Println()
	return nil
}

func diff(s *store.Store, args []string) error {
	fs := flag.NewFlagSet("diff", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the diff document as JSON")
	workers := fs.Int("workers", 0, "diff worker-pool size (0 = default)")
	fs.Parse(args) //nolint:errcheck
	sel, err := selectors(fs, 2, "diff needs FROM and TO selectors")
	if err != nil {
		return err
	}
	from, to, err := loadPair(s, sel[0], sel[1])
	if err != nil {
		return err
	}
	var engOpts []filtermap.Option
	if *workers > 0 {
		engOpts = append(engOpts, filtermap.WithWorkers(*workers))
	}
	d, err := filtermap.NewDiffEngine(engOpts...).Diff(context.Background(), from, to)
	if err != nil {
		return err
	}
	if *asJSON {
		return json.NewEncoder(os.Stdout).Encode(d)
	}
	fmt.Print(filtermap.Reporter{}.DiffText(d))
	return nil
}

// selectors returns the n selectors left after fs parsed its flags.
// Parsing stops at the first selector, so anything after the n-th is a
// misplaced flag or a stray argument: it is named, not ignored.
func selectors(fs *flag.FlagSet, n int, missing string) ([]string, error) {
	switch {
	case fs.NArg() < n:
		return nil, errors.New(missing)
	case fs.NArg() > n:
		return nil, fmt.Errorf("%s: unexpected %s after the selectors; flags go before them",
			fs.Name(), strings.Join(fs.Args()[n:], " "))
	}
	return fs.Args(), nil
}

func loadPair(s *store.Store, fromSel, toSel string) (from, to plan.Input, err error) {
	fromMeta, fromBody, err := s.Get(fromSel)
	if err != nil {
		return from, to, fmt.Errorf("from: %w", err)
	}
	toMeta, toBody, err := s.Get(toSel)
	if err != nil {
		return from, to, fmt.Errorf("to: %w", err)
	}
	return plan.Input{Meta: fromMeta, Body: fromBody},
		plan.Input{Meta: toMeta, Body: toBody}, nil
}

func timeline(s *store.Store, args []string) error {
	fs := flag.NewFlagSet("timeline", flag.ExitOnError)
	asJSON := fs.Bool("json", false, "emit the timeline document as JSON")
	kind := fs.String("kind", plan.StoreIdentify, "snapshot kind to count: "+storeKinds)
	fs.Parse(args) //nolint:errcheck
	metas := s.List(store.Query{Kind: *kind})
	if len(metas) == 0 {
		return fmt.Errorf("no %q snapshots in store", *kind)
	}
	inputs := make([]plan.Input, 0, len(metas))
	for _, m := range metas {
		_, body, err := s.Get(fmt.Sprint(m.Seq))
		if err != nil {
			return err
		}
		inputs = append(inputs, plan.Input{Meta: m, Body: body})
	}
	tl, err := filtermap.NewDiffEngine().Timeline(context.Background(), inputs)
	if err != nil {
		return err
	}
	if *asJSON {
		return json.NewEncoder(os.Stdout).Encode(tl)
	}
	fmt.Print(filtermap.Reporter{}.Timeline(tl))
	return nil
}
