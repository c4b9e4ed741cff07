package fingerprint

import (
	"fmt"

	"filtermap/internal/match"
	"filtermap/internal/mechanism"
)

// This file extends the signature layer beyond HTTP responses: matchers
// over the evidence strings the per-mechanism probes emit (DNS sinkhole
// quirks, injected-RST fingerprints, SNI-filter behaviour). Like the
// Table 2 signatures, they name a product by its observations — but the
// observation here is a wire-quirk summary, not a block page — and they
// render Table 2's mechanism column.

// MechanismSignature attributes one mechanism-probe evidence string to a
// product via an internal/match detector.
type MechanismSignature struct {
	// Product is the attributed filtering product.
	Product string
	// Kind is the censorship mechanism the evidence came from.
	Kind mechanism.Kind
	// Name labels the signature ("dns-sinkhole-203.0.113.40", ...).
	Name string
	// Matcher recognizes the evidence string (anchored literal: evidence
	// strings are canonical renderings, so a prefix match is exact enough
	// while staying robust to trailing report decoration).
	Matcher *match.Literal
}

// Describe renders the signature for Table 2's mechanism column.
func (s *MechanismSignature) Describe() string {
	return string(s.Kind) + ": " + s.Matcher.Pattern()
}

// MechanismSignatures builds matchers for every product mechanism quirk
// in internal/mechanism's signature tables, in table order.
func MechanismSignatures() []*MechanismSignature {
	lit := func(pattern string) *match.Literal {
		return match.NewLiteral(pattern, match.WithAnchor(true))
	}
	var sigs []*MechanismSignature
	for _, s := range mechanism.DNSSignatures() {
		name := "dns-nxdomain"
		if !s.NXDomain {
			name = "dns-sinkhole-" + s.Sinkhole.String()
		}
		sigs = append(sigs, &MechanismSignature{
			Product: s.Product, Kind: mechanism.KindDNS, Name: name, Matcher: lit(s.Evidence()),
		})
	}
	for _, s := range mechanism.RSTSignatures() {
		sigs = append(sigs, &MechanismSignature{
			Product: s.Product, Kind: mechanism.KindRST,
			Name:    fmt.Sprintf("rst-ttl%d-win%d", s.TTL, s.Window),
			Matcher: lit(s.Evidence()),
		})
	}
	for _, s := range mechanism.SNISignatures() {
		name := fmt.Sprintf("sni-reset-ttl%d-win%d", s.RSTTTL, s.RSTWindow)
		if s.Drop {
			name = "sni-silent-drop"
		}
		sigs = append(sigs, &MechanismSignature{
			Product: s.Product, Kind: mechanism.KindSNI, Name: name, Matcher: lit(s.Evidence()),
		})
	}
	return sigs
}

// MechanismSignatureDescriptions groups signature descriptions by
// product, in signature-table order — the Table 2 mechanism column's
// content.
func MechanismSignatureDescriptions() map[string][]string {
	out := make(map[string][]string)
	for _, s := range MechanismSignatures() {
		out[s.Product] = append(out[s.Product], s.Describe())
	}
	return out
}
