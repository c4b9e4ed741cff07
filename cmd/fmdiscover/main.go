// Command fmdiscover runs the search-based blocked-URL discovery
// crawler: starting from the curated measurement lists, it probes each
// characterization target's vantage, extracts links and keywords from
// reachable pages, and iteratively expands the frontier to surface
// blocked URLs the curated lists miss.
//
// Usage:
//
//	fmdiscover [-rounds N] [-budget N] [-isps a,b] [-seed N] [-workers N]
//	           [-json] [-stats] [-store DIR] [-table4]
//	           [-chaos seed] [-fault-profile name]
//
// The run builds one discovery document, the one fmserve returns from
// POST /v1/discover. The default text output renders it: each target's
// crawl summary and the novel blocked URLs. -json prints the document
// instead. -store appends the document to a snapshot store (kind
// "discovery") for fmhist diff; -table4 re-measures with the synthetic
// "discovered" theme folded in and prints the resulting Table 4 matrix,
// or under -json its document as a second line, one compact document
// per line as fmrepro -json prints several steps.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"filtermap"

	"filtermap/internal/plan"
	"filtermap/internal/report"
	"filtermap/internal/version"
	"filtermap/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fmdiscover: ")
	rounds := flag.Int("rounds", 0, "max crawl rounds per target (0 = default)")
	budget := flag.Int("budget", 0, "max probes per target (0 = default)")
	isps := flag.String("isps", "", "comma-separated ISP subset (default: every characterization target)")
	seed := flag.Int64("seed", 0, "world seed")
	asJSON := flag.Bool("json", false, "emit the discovery document as JSON")
	stats := flag.Bool("stats", false, "append per-stage engine statistics")
	storeDir := flag.String("store", "", "record the run into this snapshot store directory")
	table4 := flag.Bool("table4", false, "fold the discovered list into a re-measurement and print Table 4")
	worldFlags := world.Flags(flag.CommandLine)
	checkVersion := version.Flag(flag.CommandLine, "fmdiscover")
	flag.Parse()
	checkVersion()

	worldOpts, engOpts := worldFlags(filtermap.Options{Seed: *seed})
	w, err := filtermap.NewWorld(worldOpts, engOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	// Same warm-up fmserve applies before discovery: lets deployment DB
	// syncs land so the crawl sees steady-state filtering.
	w.Clock.Advance(8 * time.Hour)

	opts := filtermap.DiscoveryOptions{Rounds: *rounds, Budget: *budget}
	if *isps != "" {
		for _, name := range strings.Split(*isps, ",") {
			opts.ISPs = append(opts.ISPs, strings.TrimSpace(name))
		}
	}
	ctx := context.Background()
	targets, err := w.RunDiscovery(ctx, opts)
	if err != nil {
		log.Fatal(err)
	}

	var r filtermap.Reporter
	doc := r.DiscoveryJSON(*rounds, *budget, targets)
	if *asJSON {
		out := doc
		if *stats {
			snap := w.Stats().Snapshot()
			out.Stats = &snap
		}
		if err := json.NewEncoder(os.Stdout).Encode(out); err != nil {
			log.Fatal(err)
		}
	} else {
		fmt.Print(report.Discovery(doc))
		if *stats {
			fmt.Println()
			fmt.Print(r.Stats(w.Stats().Snapshot()))
		}
	}

	if *table4 {
		reports, err := w.RunCharacterizationWithExtra(ctx, opts.ISPs, filtermap.DiscoveredList(targets))
		if err != nil {
			log.Fatal(err)
		}
		if *asJSON {
			if err := json.NewEncoder(os.Stdout).Encode(r.Table4JSON(reports)); err != nil {
				log.Fatal(err)
			}
		} else {
			fmt.Println()
			fmt.Print(r.Table4(reports))
		}
	}

	if *storeDir != "" {
		record(*storeDir, w, worldOpts, doc)
	}
}

// record appends the discovery document (without stats) to a snapshot
// store under the ConfigHash of the run's world options — the
// fingerprint fmhist record, fmserve snapshots and the monitor use — so
// the same document recorded by any of them dedupes. Progress goes to
// stderr so stdout stays the report alone.
func record(dir string, w *filtermap.World, opts filtermap.Options, doc filtermap.DiscoveryDoc) {
	s, err := filtermap.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer s.Close()
	body, err := json.Marshal(doc)
	if err != nil {
		log.Fatal(err)
	}
	meta, err := s.Append(filtermap.Snapshot{
		Kind:   plan.StoreDiscovery,
		At:     w.Clock.Now(),
		Config: filtermap.ConfigHash(opts),
		Body:   body,
	})
	if err != nil {
		log.Fatal(err)
	}
	if meta.Deduped {
		fmt.Fprintf(os.Stderr, "fmdiscover: unchanged: deduped onto seq %d (id %s)\n", meta.Seq, meta.ID)
		return
	}
	fmt.Fprintf(os.Stderr, "fmdiscover: recorded seq %d  id %s  kind %s  (%d bytes)\n",
		meta.Seq, meta.ID, meta.Kind, meta.Bytes)
}
