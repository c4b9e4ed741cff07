package fingerprint

import "filtermap/internal/mechanism"

// This file extends the signature layer beyond HTTP responses: the
// evidence strings the per-mechanism probes emit (DNS sinkhole quirks,
// injected-RST fingerprints, SNI-filter behaviour), each attributed to
// a product. Like the Table 2 signatures, they name a product by its
// observations — but the observation here is a wire-quirk summary, not
// a block page — and they render Table 2's mechanism column.

// MechanismSignature attributes one mechanism-probe evidence string to a
// product.
type MechanismSignature struct {
	// Product is the attributed filtering product.
	Product string
	// Kind is the censorship mechanism the evidence came from.
	Kind mechanism.Kind
	// Evidence is the canonical evidence string the probe emits for the
	// product's quirk ("sinkhole=203.0.113.40 ttl=300", ...).
	Evidence string
}

// Describe renders the signature for Table 2's mechanism column.
func (s *MechanismSignature) Describe() string {
	return string(s.Kind) + ": " + s.Evidence
}

// MechanismSignatures lists every product mechanism quirk in
// internal/mechanism's signature tables, in table order.
func MechanismSignatures() []*MechanismSignature {
	var sigs []*MechanismSignature
	for _, s := range mechanism.DNSSignatures() {
		sigs = append(sigs, &MechanismSignature{Product: s.Product, Kind: mechanism.KindDNS, Evidence: s.Evidence()})
	}
	for _, s := range mechanism.RSTSignatures() {
		sigs = append(sigs, &MechanismSignature{Product: s.Product, Kind: mechanism.KindRST, Evidence: s.Evidence()})
	}
	for _, s := range mechanism.SNISignatures() {
		sigs = append(sigs, &MechanismSignature{Product: s.Product, Kind: mechanism.KindSNI, Evidence: s.Evidence()})
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
