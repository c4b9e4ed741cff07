// Identification walkthrough (§3): run the three stages separately —
// banner scan + keyword search, WhatWeb-style validation, geo/AS mapping —
// showing the intermediate products the pipeline normally hides,
// including the false positives validation rejects.
//
//	go run ./examples/identify_scan
package main

import (
	"context"
	"fmt"
	"log"

	"filtermap"

	"filtermap/internal/fingerprint"
)

func main() {
	w, err := filtermap.NewWorld(filtermap.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()

	// Stage 1: sweep the address space and grab banners (Shodan stand-in).
	index, err := w.Scanner().ScanNetwork(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("banner index holds %d services across %d countries\n\n",
		index.Len(), len(index.Countries()))

	// Keyword search is deliberately loose (§3.1): show a query with a
	// false positive.
	hits, err := index.SearchString("netsweeper")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%d raw hits for keyword \"netsweeper\" (note the tech blog):\n", len(hits))
	for _, h := range hits {
		fmt.Printf("  %-16s :%-5d %s\n", h.Addr, h.Port, h.Hostname)
	}

	// Stage 2: validation rejects anything that merely mentions the
	// product.
	engine := w.Fingerprinter()
	fmt.Println("\nvalidation verdicts:")
	for _, h := range hits {
		products, err := engine.Products(ctx, h.Addr)
		if err != nil {
			log.Fatal(err)
		}
		verdict := "REJECTED (no signature matched)"
		if len(products) > 0 {
			verdict = fmt.Sprintf("validated as %v", products)
		}
		fmt.Printf("  %-16s %-28s %s\n", h.Addr, h.Hostname, verdict)
	}

	// Stage 3: the full pipeline with geo/AS mapping — Figure 1.
	rep, err := w.RunIdentification(ctx)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	fmt.Print(filtermap.Reporter{}.Figure1(rep))

	// Show the Table 2 signature set in force.
	fmt.Println("\nactive signatures:")
	for _, sig := range fingerprint.Table2Signatures() {
		fmt.Println("  ", sig.Describe())
	}
}
