package fingerprint

import (
	"testing"

	"filtermap/internal/mechanism"
)

func TestMechanismSignaturesCoverSignatureTables(t *testing.T) {
	sigs := MechanismSignatures()
	want := len(mechanism.DNSSignatures()) + len(mechanism.RSTSignatures()) + len(mechanism.SNISignatures())
	if len(sigs) != want {
		t.Fatalf("MechanismSignatures() = %d signatures, want %d (one per table entry)", len(sigs), want)
	}
	names := make(map[string]bool, len(sigs))
	for _, s := range sigs {
		if s.Product == "" || s.Name == "" || s.Matcher == nil {
			t.Fatalf("incomplete signature: %+v", s)
		}
		if names[s.Name] {
			t.Fatalf("duplicate signature name %q", s.Name)
		}
		names[s.Name] = true
		// Every signature must recognize its own canonical evidence.
		if !s.Matcher.Match([]byte(s.Matcher.Pattern())) {
			t.Fatalf("signature %q does not match its own pattern %q", s.Name, s.Matcher.Pattern())
		}
	}
}

func TestMatchMechanismEvidenceRoundTrips(t *testing.T) {
	// Every canonical evidence string from the mechanism tables must
	// re-attribute to the product that produced it.
	for _, s := range mechanism.DNSSignatures() {
		if p, ok := MatchMechanismEvidence(mechanism.KindDNS, s.Evidence()); !ok || p != s.Product {
			t.Fatalf("dns evidence %q attributed to (%q, %v), want %q", s.Evidence(), p, ok, s.Product)
		}
	}
	for _, s := range mechanism.RSTSignatures() {
		if p, ok := MatchMechanismEvidence(mechanism.KindRST, s.Evidence()); !ok || p != s.Product {
			t.Fatalf("rst evidence %q attributed to (%q, %v), want %q", s.Evidence(), p, ok, s.Product)
		}
	}
	for _, s := range mechanism.SNISignatures() {
		if p, ok := MatchMechanismEvidence(mechanism.KindSNI, s.Evidence()); !ok || p != s.Product {
			t.Fatalf("sni evidence %q attributed to (%q, %v), want %q", s.Evidence(), p, ok, s.Product)
		}
	}
}

func TestMatchMechanismEvidenceRejectsCrossKindAndGarbage(t *testing.T) {
	dns := mechanism.DNSSignatures()[0]
	// The right evidence under the wrong kind must not attribute.
	if p, ok := MatchMechanismEvidence(mechanism.KindRST, dns.Evidence()); ok {
		t.Fatalf("dns evidence matched under rst kind: %q", p)
	}
	if p, ok := MatchMechanismEvidence(mechanism.KindDNS, "no such evidence"); ok {
		t.Fatalf("garbage evidence attributed to %q", p)
	}
	if p, ok := MatchMechanismEvidence(mechanism.KindHTTP, "HTTP/1.1 403 Forbidden"); ok {
		t.Fatalf("http kind should have no mechanism signatures, got %q", p)
	}
}

func TestMechanismSignatureDescriptionsGroupByProduct(t *testing.T) {
	descs := MechanismSignatureDescriptions()
	counts := make(map[string]int)
	for _, s := range MechanismSignatures() {
		counts[s.Product]++
	}
	if len(descs) != len(counts) {
		t.Fatalf("descriptions cover %d products, signatures cover %d", len(descs), len(counts))
	}
	for p, n := range counts {
		if len(descs[p]) != n {
			t.Fatalf("product %q has %d descriptions, want %d", p, len(descs[p]), n)
		}
	}
}
