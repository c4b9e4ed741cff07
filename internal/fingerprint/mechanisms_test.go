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
	seen := make(map[string]bool, len(sigs))
	for _, s := range sigs {
		if s.Product == "" || s.Kind == "" || s.Evidence == "" {
			t.Fatalf("incomplete signature: %+v", s)
		}
		if d := s.Describe(); seen[d] {
			t.Fatalf("duplicate signature %q", d)
		} else {
			seen[d] = true
		}
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
