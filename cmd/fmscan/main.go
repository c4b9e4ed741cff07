// Command fmscan runs the §3 identification pipeline: banner scan,
// keyword search, signature validation, and geo/AS mapping.
//
// Usage:
//
//	fmscan [-query "netsweeper country:YE"] [-installations] [-json] [-workers N] [-stats]
//	       [-chaos seed] [-fault-profile name]
//
// Without -query it runs the full Table 2 keyword fan-out and prints the
// Figure 1 map; with -query it prints raw banner-index hits for one
// Shodan-style query. The map is rendered from the identification
// document, which -json prints instead: the same document fmserve's
// POST /v1/identify returns. -workers bounds the shared pool every
// pipeline stage runs on; -stats prints the per-stage timing table to
// stderr. -chaos installs the deterministic fault-injection plan with
// the given seed; the pipeline then retries transient faults, completes
// with partial coverage, and marks the report DEGRADED.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"

	"filtermap"

	"filtermap/internal/report"
	"filtermap/internal/scanner"
	"filtermap/internal/version"
	"filtermap/internal/world"
)

func main() {
	query := flag.String("query", "", "run a single Shodan-style banner query instead of the full pipeline")
	showInstalls := flag.Bool("installations", false, "print per-installation detail")
	jsonOut := flag.Bool("json", false, "emit the identification report as JSON (fmserve's /v1/identify encoding)")
	saveCensus := flag.String("save-census", "", "write the banner index to a census JSONL file after scanning")
	loadCensus := flag.String("load-census", "", "load the banner index from a census JSONL file instead of scanning")
	showStats := flag.Bool("stats", false, "print the per-stage engine timing table to stderr")
	worldFlags := world.Flags(flag.CommandLine)
	checkVersion := version.Flag(flag.CommandLine, "fmscan")
	flag.Parse()
	checkVersion()

	opts, engOpts := worldFlags(filtermap.Options{})
	w, err := filtermap.NewWorld(opts, engOpts...)
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	defer func() {
		if *showStats {
			fmt.Fprint(os.Stderr, filtermap.Reporter{}.Stats(w.Stats().Snapshot()))
		}
	}()
	ctx := context.Background()

	index, err := buildIndex(ctx, w, *loadCensus)
	if err != nil {
		log.Fatal(err)
	}
	if *saveCensus != "" {
		f, err := os.Create(*saveCensus)
		if err != nil {
			log.Fatal(err)
		}
		if err := index.WriteCensus(f); err != nil {
			log.Fatal(err)
		}
		if err := f.Close(); err != nil {
			log.Fatal(err)
		}
		fmt.Printf("wrote %d banners to %s\n", index.Len(), *saveCensus)
	}

	if *query != "" {
		hits, err := index.SearchString(*query)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%d hits for %q\n", len(hits), *query)
		for _, h := range hits {
			fmt.Printf("  %s:%d  %-30s %-3s %s\n", h.Addr, h.Port, h.Hostname, h.Country, h.StatusLine)
		}
		return
	}

	pipeline, err := w.IdentifyPipeline(ctx, index)
	if err != nil {
		log.Fatal(err)
	}
	rep, err := pipeline.Run(ctx)
	if err != nil {
		log.Fatal(err)
	}
	for _, qe := range rep.QueryErrors {
		fmt.Fprintf(os.Stderr, "warning: %v\n", qe)
	}
	doc := report.IdentifyJSON(rep)
	if *jsonOut {
		if *showStats {
			snap := w.Stats().Snapshot()
			doc.Stats = &snap
		}
		if err := json.NewEncoder(os.Stdout).Encode(doc); err != nil {
			log.Fatal(err)
		}
		return
	}
	fmt.Print(report.Figure1(doc))
	if *showInstalls {
		fmt.Println()
		fmt.Print(report.Installations(doc))
	}
}

func buildIndex(ctx context.Context, w *filtermap.World, censusPath string) (*scanner.Index, error) {
	if censusPath != "" {
		f, err := os.Open(censusPath)
		if err != nil {
			return nil, err
		}
		defer f.Close()
		return scanner.ReadCensus(f)
	}
	return w.Scanner().ScanNetwork(ctx)
}
