package geo

import (
	"net/netip"
	"testing"
)

func TestDBFallback(t *testing.T) {
	var db DB
	db.Add(netip.MustParsePrefix("10.0.0.0/8"), "se")
	db.SetFallback(func(addr netip.Addr) (string, bool) {
		if addr.As4()[0] == 240 {
			return "QA", true
		}
		return "", false
	})

	if c, ok := db.Country(netip.MustParseAddr("10.1.2.3")); !ok || c != "SE" {
		t.Fatalf("stored prefix: got %q,%v", c, ok)
	}
	if c, ok := db.Country(netip.MustParseAddr("240.1.2.3")); !ok || c != "QA" {
		t.Fatalf("fallback answer: got %q,%v", c, ok)
	}
	if _, ok := db.Country(netip.MustParseAddr("192.0.2.1")); ok {
		t.Fatal("fallback miss should report not found")
	}
	// Fallback must not mask a stored record, even a broad one.
	db.Add(netip.MustParsePrefix("240.0.0.0/4"), "fi")
	if c, _ := db.Country(netip.MustParseAddr("240.1.2.3")); c != "FI" {
		t.Fatalf("stored prefix should win over fallback, got %q", c)
	}
}

func TestDBMostSpecificAcrossLengths(t *testing.T) {
	var db DB
	db.Add(netip.MustParsePrefix("10.0.0.0/8"), "SE")
	db.Add(netip.MustParsePrefix("10.20.0.0/16"), "FI")
	db.Add(netip.MustParsePrefix("10.20.30.0/24"), "QA")

	cases := []struct {
		addr, want string
	}{
		{"10.1.1.1", "SE"},
		{"10.20.1.1", "FI"},
		{"10.20.30.1", "QA"},
	}
	for _, c := range cases {
		got, ok := db.Country(netip.MustParseAddr(c.addr))
		if !ok || got != c.want {
			t.Fatalf("Country(%s) = %q,%v want %q", c.addr, got, ok, c.want)
		}
	}
	records := func() (n int) {
		for _, m := range db.byBits {
			n += len(m)
		}
		return n
	}
	if n := records(); n != 3 {
		t.Fatalf("records = %d, want 3", n)
	}
	// Identical prefix replaces, keeping count stable.
	db.Add(netip.MustParsePrefix("10.20.0.0/16"), "LB")
	if got, _ := db.Country(netip.MustParseAddr("10.20.1.1")); got != "LB" {
		t.Fatalf("replaced record not visible: %q", got)
	}
	if n := records(); n != 3 {
		t.Fatalf("records after replace = %d, want 3", n)
	}
}

func TestASTableFallback(t *testing.T) {
	var tab ASTable
	tab.Add(ASRecord{ASN: 100, Name: "RealNet", Country: "se", Prefix: netip.MustParsePrefix("10.0.0.0/8")})
	tab.SetFallback(func(addr netip.Addr) (ASRecord, bool) {
		if addr.As4()[0] != 240 {
			return ASRecord{}, false
		}
		p, _ := addr.Prefix(12)
		return ASRecord{ASN: 3000001, Name: "SynthNet", Country: "QA", Registry: "synthetic", Prefix: p}, true
	})

	if rec, ok := tab.Lookup(netip.MustParseAddr("10.0.0.1")); !ok || rec.ASN != 100 || rec.Country != "SE" {
		t.Fatalf("stored record: %+v,%v", rec, ok)
	}
	rec, ok := tab.Lookup(netip.MustParseAddr("240.0.0.17"))
	if !ok || rec.ASN != 3000001 || rec.Name != "SynthNet" {
		t.Fatalf("fallback record: %+v,%v", rec, ok)
	}
	if _, ok := tab.Lookup(netip.MustParseAddr("192.0.2.1")); ok {
		t.Fatal("miss should report not found")
	}
}
