// Package identify implements the §3 identification pipeline end-to-end:
//
//  1. fan Table 2's product keywords out over the banner index, in
//     combination with country filters ("in combination with each of the
//     two letter country-code top-level domains, to maximize the set of
//     results"),
//  2. validate every candidate IP with the fingerprint engine (the
//     WhatWeb stage) — the search stage is deliberately non-conservative
//     and validation rejects its false positives,
//  3. map validated IPs to country (geolocation database) and AS number
//     (bulk whois), producing the per-product country map of Figure 1.
package identify

import (
	"context"
	"fmt"
	"net/netip"
	"sort"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/fingerprint"
	"filtermap/internal/geo"
	"filtermap/internal/scanner"
)

// Stage names the pipeline records in its engine.Stats registry.
const (
	StageSearch   = "search"
	StageValidate = "validate"
	StageWhois    = "whois"
	StageGeo      = "geo"
)

// Installation is one validated URL-filter observation.
type Installation struct {
	Addr     netip.Addr
	Hostname string
	// Products lists validated product names on this host (a host can
	// expose more than one).
	Products []string
	// Country is the geolocation database's answer ("" if unknown).
	Country string
	// ASN and ASName come from the whois lookup (0/"" if unknown).
	ASN    int
	ASName string
	// Matches carries the full fingerprint evidence.
	Matches []fingerprint.Match
}

// HasProduct reports whether the installation validated as product.
func (i *Installation) HasProduct(product string) bool {
	for _, p := range i.Products {
		if p == product {
			return true
		}
	}
	return false
}

// QueryError records one banner-index query that failed during the
// keyword fan-out. A bad query no longer aborts the whole run; it is
// reported here and the scan continues.
type QueryError struct {
	// Product is the product whose keyword set produced the query.
	Product string
	// Query is the Shodan-style query string that failed.
	Query string
	// Err is the failure.
	Err error
}

// Error implements error.
func (e QueryError) Error() string {
	return fmt.Sprintf("identify: product %s query %q: %v", e.Product, e.Query, e.Err)
}

// Unwrap exposes the cause.
func (e QueryError) Unwrap() error { return e.Err }

// StageError records one pipeline-stage failure the run survived. The
// error is kept as text so reports and JSON documents marshal it without
// caring about concrete error types.
type StageError struct {
	// Stage is the pipeline stage that failed (StageValidate, StageWhois…).
	Stage string
	// Target names what failed: a candidate address, or "bulk" for the
	// whois batch lookup.
	Target string
	// Err is the failure text.
	Err string
}

// Report is the pipeline outcome.
type Report struct {
	// Installations are the validated hosts, sorted by address.
	Installations []Installation
	// CandidateCount is how many distinct IPs keyword search surfaced.
	CandidateCount int
	// ValidatedCount is how many survived fingerprint validation.
	ValidatedCount int
	// CandidatesByProduct maps product -> candidate addresses from the
	// keyword stage (before validation).
	CandidatesByProduct map[string][]netip.Addr
	// QueryErrors lists keyword queries that failed mid fan-out, sorted
	// by (product, query). The run continues past them; callers decide
	// whether partial coverage is acceptable.
	QueryErrors []QueryError
	// Errors lists stage-level failures the run survived — candidate
	// validations that kept failing, a dead whois lookup — sorted by
	// (stage, target). Installations reflects whatever coverage remained.
	Errors []StageError
	// Degraded reports that the run completed with partial coverage:
	// at least one stage or query error occurred.
	Degraded bool
}

// ProductCountries maps each product to the sorted set of countries where
// it was validated — the content of Figure 1.
func (r *Report) ProductCountries() map[string][]string {
	set := make(map[string]map[string]bool)
	for _, inst := range r.Installations {
		if inst.Country == "" {
			continue
		}
		for _, p := range inst.Products {
			if set[p] == nil {
				set[p] = make(map[string]bool)
			}
			set[p][inst.Country] = true
		}
	}
	out := make(map[string][]string, len(set))
	for p, countries := range set {
		list := make([]string, 0, len(countries))
		for c := range countries {
			list = append(list, c)
		}
		sort.Strings(list)
		out[p] = list
	}
	return out
}

// InstallationsIn returns the validated installations of product within
// country.
func (r *Report) InstallationsIn(product, country string) []Installation {
	var out []Installation
	for _, inst := range r.Installations {
		if inst.Country == country && inst.HasProduct(product) {
			out = append(out, inst)
		}
	}
	return out
}

// FalsePositiveRate reports the fraction of keyword candidates that
// validation rejected (the ablation §3.1 motivates: search is loose,
// validation is the precision stage).
func (r *Report) FalsePositiveRate() float64 {
	if r.CandidateCount == 0 {
		return 0
	}
	return float64(r.CandidateCount-r.ValidatedCount) / float64(r.CandidateCount)
}

// Pipeline wires the §3 stages together.
type Pipeline struct {
	// Index is the banner index to search (the Shodan stand-in).
	Index *scanner.Index
	// Fingerprinter validates candidates.
	Fingerprinter *fingerprint.Engine
	// GeoDB supplies country locations.
	GeoDB *geo.DB
	// Whois supplies IP-to-ASN mappings; nil skips AS resolution.
	Whois *geo.WhoisClient
	// Keywords maps product name -> search keywords; nil uses the Table 2
	// defaults.
	Keywords map[string][]string
	// Countries is the ccTLD fan-out list; nil derives it from the index.
	Countries []string
	// Config carries the shared execution knobs (workers, timeout, retry,
	// stats, observer) for the pipeline's pooled stages.
	Config engine.Config
}

func (p *Pipeline) keywords() map[string][]string {
	if p.Keywords != nil {
		return p.Keywords
	}
	return fingerprint.ShodanKeywords()
}

// Run executes the pipeline. The three stages fan out through the shared
// engine pool; results are collected and sorted so the report is
// byte-identical regardless of worker count.
func (p *Pipeline) Run(ctx context.Context) (*Report, error) {
	if p.Index == nil {
		return nil, fmt.Errorf("identify: no banner index")
	}

	countries := p.Countries
	if countries == nil {
		countries = p.Index.Countries()
	}

	report, addrs, err := p.runSearch(ctx, countries)
	if err != nil {
		return nil, err
	}

	vals, err := p.runValidation(ctx, addrs, report)
	if err != nil {
		return nil, err
	}
	report.ValidatedCount = len(vals)

	if err := p.runGeoMapping(ctx, vals, report); err != nil {
		return nil, err
	}
	sort.Slice(report.Errors, func(i, j int) bool {
		a, b := report.Errors[i], report.Errors[j]
		if a.Stage != b.Stage {
			return a.Stage < b.Stage
		}
		return a.Target < b.Target
	})
	report.Degraded = len(report.Errors) > 0 || len(report.QueryErrors) > 0
	return report, nil
}

// productHits is one product's share of the stage-1 fan-out.
type productHits struct {
	addrs  []netip.Addr
	errors []QueryError
}

// runSearch is stage 1: the keyword fan-out, parallel across products.
// Queries run bare and per-country; the union of hits per product forms
// the candidate set. A failing query is recorded, not fatal.
func (p *Pipeline) runSearch(ctx context.Context, countries []string) (*Report, []netip.Addr, error) {
	products := make([]string, 0, len(p.keywords()))
	for product := range p.keywords() {
		products = append(products, product)
	}
	sort.Strings(products)

	results := engine.MapResults(ctx, p.Config, StageSearch, products, func(_ context.Context, product string) (productHits, error) {
		var hits productHits
		seen := make(map[netip.Addr]bool)
		for _, kw := range p.keywords()[product] {
			queries := []string{kw}
			for _, cc := range countries {
				queries = append(queries, fmt.Sprintf("%s country:%s", kw, cc))
			}
			for _, q := range queries {
				banners, err := p.Index.SearchString(q)
				if err != nil {
					hits.errors = append(hits.errors, QueryError{Product: product, Query: q, Err: err})
					continue
				}
				for _, b := range banners {
					if !seen[b.Addr] {
						seen[b.Addr] = true
						hits.addrs = append(hits.addrs, b.Addr)
					}
				}
			}
		}
		sort.Slice(hits.addrs, func(i, j int) bool { return hits.addrs[i].Less(hits.addrs[j]) })
		return hits, nil
	})
	if err := ctx.Err(); err != nil {
		return nil, nil, err
	}

	candidates := make(map[netip.Addr]bool)
	candidatesByProduct := make(map[string][]netip.Addr)
	report := &Report{CandidatesByProduct: candidatesByProduct}
	for i, product := range products {
		hits := results[i].Value
		if len(hits.addrs) > 0 {
			candidatesByProduct[product] = hits.addrs
		}
		report.QueryErrors = append(report.QueryErrors, hits.errors...)
		for _, a := range hits.addrs {
			candidates[a] = true
		}
	}
	sort.Slice(report.QueryErrors, func(i, j int) bool {
		a, b := report.QueryErrors[i], report.QueryErrors[j]
		if a.Product != b.Product {
			return a.Product < b.Product
		}
		return a.Query < b.Query
	})

	addrs := make([]netip.Addr, 0, len(candidates))
	for a := range candidates {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i].Less(addrs[j]) })
	report.CandidateCount = len(addrs)
	return report, addrs, nil
}

// validated is one host that survived stage 2.
type validated struct {
	addr     netip.Addr
	products []string
	matches  []fingerprint.Match
}

// runValidation is stage 2: fingerprint validation, parallel across
// candidate addresses. Output preserves the (sorted) candidate order, so
// the result is deterministic for any worker count. A candidate whose
// validation keeps failing is recorded in report.Errors and dropped —
// partial coverage beats a dead run. The configured Breaker (if any)
// stops retry burn per candidate address.
func (p *Pipeline) runValidation(ctx context.Context, addrs []netip.Addr, report *Report) ([]validated, error) {
	results := engine.MapResults(ctx, p.Config, StageValidate, addrs, func(ctx context.Context, addr netip.Addr) (*validated, error) {
		key := "validate:" + addr.String()
		if !p.Config.Breaker.Allow(key) {
			return nil, engine.Fatal(fmt.Errorf("identify: fingerprint %s: %w", addr, engine.ErrCircuitOpen))
		}
		matches, err := p.Fingerprinter.Identify(ctx, addr)
		if err != nil {
			err = fmt.Errorf("identify: fingerprint %s: %w", addr, err)
			p.Config.Breaker.Record(key, err)
			return nil, err
		}
		p.Config.Breaker.Record(key, nil)
		if len(matches) == 0 {
			return nil, nil
		}
		set := make(map[string]bool)
		var products []string
		for _, m := range matches {
			if !set[m.Product] {
				set[m.Product] = true
				products = append(products, m.Product)
			}
		}
		sort.Strings(products)
		return &validated{addr: addr, products: products, matches: matches}, nil
	})
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var vals []validated
	for i, r := range results {
		if r.Err != nil {
			report.Errors = append(report.Errors, StageError{Stage: StageValidate, Target: addrs[i].String(), Err: r.Err.Error()})
			continue
		}
		if r.Value != nil {
			vals = append(vals, *r.Value)
		}
	}
	return vals, nil
}

// runGeoMapping is stage 3: one bulk whois lookup, then parallel
// per-installation geo/AS assembly.
func (p *Pipeline) runGeoMapping(ctx context.Context, vals []validated, report *Report) error {
	valAddrs := make([]netip.Addr, len(vals))
	for i, v := range vals {
		valAddrs[i] = v.addr
	}
	whoisResults := make(map[netip.Addr]geo.WhoisResult)
	if p.Whois != nil && len(valAddrs) > 0 {
		start := time.Now()
		results, err := p.Whois.Lookup(ctx, valAddrs)
		p.Config.Stats.Stage(StageWhois).Record(time.Since(start), err == nil)
		switch {
		case err != nil && ctx.Err() != nil:
			return ctx.Err()
		case err != nil:
			// A dead whois service degrades the report (no ASN/AS-name
			// columns) instead of killing it; geolocation still works.
			report.Errors = append(report.Errors, StageError{Stage: StageWhois, Target: "bulk", Err: err.Error()})
		default:
			for _, r := range results {
				whoisResults[r.Addr] = r
			}
		}
	}

	installations, err := engine.Map(ctx, p.Config, StageGeo, vals, func(_ context.Context, v validated) (Installation, error) {
		inst := Installation{Addr: v.addr, Products: v.products, Matches: v.matches}
		if p.Fingerprinter != nil && p.Fingerprinter.Vantage != nil {
			if name, ok := p.Fingerprinter.Vantage.Network().ReverseLookup(v.addr); ok {
				inst.Hostname = name
			}
		}
		if p.GeoDB != nil {
			if c, ok := p.GeoDB.Country(v.addr); ok {
				inst.Country = c
			}
		}
		if w, ok := whoisResults[v.addr]; ok && w.Found {
			inst.ASN = w.ASN
			inst.ASName = w.ASName
			if inst.Country == "" {
				inst.Country = w.Country
			}
		}
		return inst, nil
	})
	if err != nil {
		return err
	}
	report.Installations = installations
	sort.Slice(report.Installations, func(i, j int) bool {
		return report.Installations[i].Addr.Less(report.Installations[j].Addr)
	})
	return nil
}
