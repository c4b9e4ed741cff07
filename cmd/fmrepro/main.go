// Command fmrepro regenerates every table and figure of the paper's
// evaluation on the simulated Internet and prints them in the paper's
// layout.
//
// Usage:
//
//	fmrepro [-only table1,figure1,...] [-stats] [-json] [-chaos seed] [-fault-profile name] [-workers n]
//
// Without -only, everything is regenerated in order; -only takes a
// comma-separated subset of table1..table5, figure1, denypagetests,
// mechanisms.
// With -stats, each step that runs a pipeline prints its per-stage
// engine timing table to stderr (stdout stays byte-identical for the
// golden files). Each artifact with a document (table1, table2, figure1,
// table3, table4, mechanisms) builds it once and renders it as text;
// with -json it prints that document instead, the encoding fmserve
// serves. The prose-only artifacts (denypagetests, table5) are skipped
// under -json with a note on stderr.
//
// With -chaos, a nonzero seed installs a deterministic fault-injection
// plan on the simulated network (-fault-profile picks the named plan).
// Pipelines then run with retries and a circuit breaker, complete with
// partial results, and the reports carry explicit DEGRADED sections —
// byte-identical for the same seed at any -workers count.
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

	"filtermap/internal/confirm"
	"filtermap/internal/fingerprint"
	"filtermap/internal/measurement"
	"filtermap/internal/report"
	"filtermap/internal/urllist"
	"filtermap/internal/version"
	"filtermap/internal/world"
)

var (
	showStats  = flag.Bool("stats", false, "print per-stage engine timing tables to stderr")
	jsonOut    = flag.Bool("json", false, "emit machine-readable artifacts as JSON (fmserve's encoding)")
	worldFlags = world.Flags(flag.CommandLine)
)

// newWorld builds a world for one step, folding in the global -workers,
// -scale, -chaos and -fault-profile flags.
func newWorld(base filtermap.Options) (*filtermap.World, error) {
	opts, engOpts := worldFlags(base)
	return filtermap.NewWorld(opts, engOpts...)
}

// emit prints a step's document: under -json as compact JSON plus a
// trailing newline, the way fmserve encodes it, and otherwise rendered
// as text.
func emit[D any](doc D, render func(D) string) error {
	if *jsonOut {
		return json.NewEncoder(os.Stdout).Encode(doc)
	}
	fmt.Print(render(doc))
	return nil
}

// dumpStats prints a world's per-stage timing table to stderr when -stats
// is set. Call it before Close, after the pipelines have run.
func dumpStats(step string, w *filtermap.World) {
	if !*showStats {
		return
	}
	fmt.Fprintf(os.Stderr, "--- %s engine stats ---\n", step)
	fmt.Fprint(os.Stderr, filtermap.Reporter{}.Stats(w.Stats().Snapshot()))
}

// jsonStats returns the world's engine snapshot for embedding in a -json
// document's optional "stats" field when -stats is also set (nil — and
// therefore omitted — otherwise).
func jsonStats(w *filtermap.World) *filtermap.StatsSnapshot {
	if !*showStats || !*jsonOut {
		return nil
	}
	snap := w.Stats().Snapshot()
	return &snap
}

func main() {
	only := flag.String("only", "", "regenerate a comma-separated subset: table1..table5, figure1, denypagetests, mechanisms")
	checkVersion := version.Flag(flag.CommandLine, "fmrepro")
	flag.Parse()
	checkVersion()

	steps := []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"table1", table1},
		{"table2", table2},
		{"figure1", figure1},
		{"table3", table3},
		{"table4", table4},
		{"denypagetests", denyPageTests},
		{"table5", table5},
		{"mechanisms", mechanisms},
	}
	// -only names are unordered; steps always run in paper order.
	wanted := make(map[string]bool)
	for _, name := range strings.Split(*only, ",") {
		if name = strings.ToLower(strings.TrimSpace(name)); name != "" {
			wanted[name] = true
		}
	}
	ctx := context.Background()
	for _, s := range steps {
		if len(wanted) > 0 || *only != "" {
			if !wanted[s.name] {
				continue
			}
			delete(wanted, s.name)
		}
		if err := s.run(ctx); err != nil {
			log.Fatalf("%s: %v", s.name, err)
		}
		fmt.Println()
	}
	if len(wanted) > 0 {
		for name := range wanted {
			fmt.Fprintf(os.Stderr, "unknown artifact %q\n", name)
		}
		os.Exit(2)
	}
}

func table1(context.Context) error {
	return emit(report.Table1JSON(), report.Table1)
}

func table2(context.Context) error {
	return emit(report.Table2JSON(fingerprint.ShodanKeywords(), fingerprint.Table2SignatureDescriptions()), report.Table2)
}

func figure1(ctx context.Context) error {
	w, err := newWorld(filtermap.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	defer dumpStats("figure1", w)
	rep, err := w.RunIdentification(ctx)
	if err != nil {
		return err
	}
	doc := report.IdentifyJSON(rep)
	doc.Stats = jsonStats(w)
	return emit(doc, func(doc report.IdentifyDoc) string {
		return report.Figure1(doc) + "\n" + report.Installations(doc)
	})
}

func table3(ctx context.Context) error {
	w, err := newWorld(filtermap.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	defer dumpStats("table3", w)
	outcomes, err := w.RunTable3(ctx)
	if err != nil {
		return err
	}
	doc := report.Table3JSON(outcomes)
	doc.Stats = jsonStats(w)
	return emit(doc, report.Table3)
}

func table4(ctx context.Context) error {
	w, err := newWorld(filtermap.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	defer dumpStats("table4", w)
	w.Clock.Advance(8 * time.Hour)
	reports, err := w.RunCharacterization(ctx)
	if err != nil {
		return err
	}
	doc := report.Table4JSON(reports)
	doc.Stats = jsonStats(w)
	return emit(doc, func(doc report.Table4Doc) string {
		return report.Table4(doc) + "\n(cells reconstructed from §5 prose; see EXPERIMENTS.md)\n"
	})
}

func denyPageTests(ctx context.Context) error {
	if *jsonOut {
		fmt.Fprintln(os.Stderr, "denypagetests: no JSON form, skipping (-json)")
		return nil
	}
	w, err := newWorld(filtermap.Options{})
	if err != nil {
		return err
	}
	defer w.Close()
	w.Clock.Advance(8 * time.Hour)
	client, err := w.MeasureClient(filtermap.ISPYemenNet)
	if err != nil {
		return err
	}
	fmt.Println("Netsweeper deny-page tests from YemenNet (§4.4): 66-category probe")
	for n := 1; n <= 66; n++ {
		url := fmt.Sprintf("http://denypagetests.netsweeper.com/category/catno/%d", n)
		res := client.TestURL(ctx, url)
		if res.Verdict == measurement.Blocked {
			fmt.Printf("  catno %-3d BLOCKED (%s)\n", n, res.BlockMatch.Category)
		}
	}
	return nil
}

// mechanisms surveys the multi-mechanism deployments: a world built with
// Options.Mechanisms gains nine ISPs censoring via DNS poisoning, TCP
// RST injection, and SNI filtering; the survey probes each and prints
// the extended Table 2 (mechanism-signature column), the per-ISP
// findings, and the Table 4 mechanism matrix. HTTP-only artifacts never
// build mechanism worlds, so their output stays byte-identical.
func mechanisms(ctx context.Context) error {
	w, err := newWorld(filtermap.Options{Mechanisms: &filtermap.MechanismOptions{}})
	if err != nil {
		return err
	}
	defer w.Close()
	defer dumpStats("mechanisms", w)
	targets, err := w.RunMechanismSurvey(ctx)
	if err != nil {
		return err
	}
	doc := report.MechanismsJSON(targets)
	doc.Stats = jsonStats(w)
	return emit(doc, func(doc report.MechanismsDoc) string {
		return report.Table2WithMechanisms(fingerprint.ShodanKeywords(), fingerprint.Table2SignatureDescriptions(),
			fingerprint.MechanismSignatureDescriptions()) +
			"\n" + report.MechanismSurvey(doc) + "\n" + report.Table4Mechanisms(targets)
	})
}

func table5(ctx context.Context) error {
	if *jsonOut {
		fmt.Fprintln(os.Stderr, "table5: no JSON form, skipping (-json)")
		return nil
	}
	var rows []report.Table5Row

	// Row 1: hidden devices.
	w1, err := newWorld(filtermap.Options{HideConsoles: true})
	if err != nil {
		return err
	}
	rep1, err := w1.RunIdentification(ctx)
	if err != nil {
		return err
	}
	o1, err := w1.RunPlan(ctx, "smartfilter-saudi-bayanat")
	if err != nil {
		return err
	}
	rows = append(rows, report.Table5Row{
		Step: "Identify installations (§3.1)", Technique: "Port scans (Shodan-style)",
		Limitation: "Can only identify externally visible installations",
		Evasion:    "Do not allow device to be accessed externally",
		Outcome:    fmt.Sprintf("identification finds %d installs; confirmation still %s", len(rep1.Installations), o1.Ratio()),
	})
	w1.Close()

	// Row 2: scrubbed headers.
	w2, err := newWorld(filtermap.Options{ScrubHeaders: true})
	if err != nil {
		return err
	}
	rep2, err := w2.RunIdentification(ctx)
	if err != nil {
		return err
	}
	pc := rep2.ProductCountries()
	rows = append(rows, report.Table5Row{
		Step: "Validate installations (§3.1)", Technique: "WhatWeb-style signatures",
		Limitation: "Requires distinctive use of protocol headers",
		Evasion:    "Remove evidence of product from headers",
		Outcome: fmt.Sprintf("SmartFilter: %d countries (header/title sigs die); Netsweeper: %d (structural deny path survives)",
			len(pc[fingerprint.ProductSmartFilter]), len(pc[fingerprint.ProductNetsweeper])),
	})
	w2.Close()

	// Row 3: submission filtering and its countermeasure.
	w3, err := newWorld(filtermap.Options{FilterSubmissions: true})
	if err != nil {
		return err
	}
	o3, err := w3.RunPlan(ctx, "smartfilter-saudi-bayanat")
	if err != nil {
		return err
	}
	urls, err := w3.ProvisionTestSites(urllist.AdultImage, 10)
	if err != nil {
		return err
	}
	measure, err := w3.MeasureClient(filtermap.ISPBayanat)
	if err != nil {
		return err
	}
	counter := &confirm.Campaign{
		Product: "McAfee SmartFilter", Country: "SA", ISP: filtermap.ISPBayanat, ASN: filtermap.ASNBayanat,
		Category: "pornography", CategoryLabel: "Pornography",
		DomainURLs: urls, SubmitCount: 5, PreTest: true, WaitDays: 4, RetestRounds: 3,
		Submit: w3.CounterEvasionSubmitter("McAfee SmartFilter"),
		Wait:   w3.Wait, Measure: measure,
	}
	oc, err := confirm.Run(ctx, counter)
	if err != nil {
		return err
	}
	rows = append(rows, report.Table5Row{
		Step: "Confirm censorship (§4)", Technique: "In-country testing and URL submission",
		Limitation: "Requires in-country testers, category knowledge, fresh domains",
		Evasion:    "Vendors may identify and disregard our submissions",
		Outcome:    fmt.Sprintf("lab identity: %s blocked; via proxy+webmail (§6.2): %s blocked", o3.Ratio(), oc.Ratio()),
	})
	w3.Close()

	fmt.Print(report.Table5(rows))
	return nil
}
