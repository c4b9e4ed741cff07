package geo

import (
	"context"
	"net"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestDBCountryLongestPrefixWins(t *testing.T) {
	var db DB
	db.Add(netip.MustParsePrefix("94.0.0.0/8"), "eu")
	db.Add(netip.MustParsePrefix("94.56.0.0/16"), "ae")
	db.Add(netip.MustParsePrefix("94.56.1.0/24"), "qa")

	cases := map[string]string{
		"94.1.2.3":  "EU",
		"94.56.2.3": "AE",
		"94.56.1.9": "QA",
	}
	for ip, want := range cases {
		got, ok := db.Country(netip.MustParseAddr(ip))
		if !ok || got != want {
			t.Errorf("Country(%s) = %q, %v; want %q", ip, got, ok, want)
		}
	}
	if _, ok := db.Country(netip.MustParseAddr("10.0.0.1")); ok {
		t.Error("Country matched an uncovered address")
	}
}

func TestDBCountryUppercased(t *testing.T) {
	var db DB
	db.Add(netip.MustParsePrefix("192.0.2.0/24"), "ye")
	got, _ := db.Country(netip.MustParseAddr("192.0.2.1"))
	if got != "YE" {
		t.Fatalf("Country = %q, want YE", got)
	}
}

func TestASTableLookup(t *testing.T) {
	var tab ASTable
	tab.Add(ASRecord{ASN: 12486, Name: "YEMENNET", Country: "YE", Prefix: netip.MustParsePrefix("82.114.160.0/19")})
	tab.Add(ASRecord{ASN: 5384, Name: "EMIRATES-INTERNET", Country: "AE", Prefix: netip.MustParsePrefix("94.56.0.0/16")})

	rec, ok := tab.Lookup(netip.MustParseAddr("82.114.161.20"))
	if !ok || rec.ASN != 12486 || rec.Country != "YE" {
		t.Fatalf("Lookup = %+v, %v", rec, ok)
	}
	if _, ok := tab.Lookup(netip.MustParseAddr("10.0.0.1")); ok {
		t.Fatal("Lookup matched an uncovered address")
	}
}

func TestASTableMostSpecific(t *testing.T) {
	var tab ASTable
	tab.Add(ASRecord{ASN: 1, Name: "BIG", Country: "US", Prefix: netip.MustParsePrefix("10.0.0.0/8")})
	tab.Add(ASRecord{ASN: 2, Name: "SMALL", Country: "CA", Prefix: netip.MustParsePrefix("10.1.0.0/16")})
	rec, _ := tab.Lookup(netip.MustParseAddr("10.1.2.3"))
	if rec.ASN != 2 {
		t.Fatalf("most specific ASN = %d, want 2", rec.ASN)
	}
}

// pipeDialer wires a WhoisClient to an in-process WhoisServer.
func pipeDialer(t *testing.T, srv *WhoisServer) WhoisDialer {
	t.Helper()
	return func(ctx context.Context) (net.Conn, error) {
		client, server := net.Pipe()
		go srv.ServeConn(server)
		return client, nil
	}
}

func testWhoisPair(t *testing.T) (*WhoisClient, *ASTable) {
	t.Helper()
	tab := &ASTable{}
	tab.Add(ASRecord{ASN: 42298, Name: "OOREDOO-AS Ooredoo Q.S.C.", Country: "QA", Prefix: netip.MustParsePrefix("89.211.0.0/16")})
	tab.Add(ASRecord{ASN: 12486, Name: "YEMENNET", Country: "YE", Prefix: netip.MustParsePrefix("82.114.160.0/19")})
	srv := &WhoisServer{Table: tab}
	return &WhoisClient{Dial: pipeDialer(t, srv)}, tab
}

func TestWhoisBulkLookup(t *testing.T) {
	client, _ := testWhoisPair(t)
	addrs := []netip.Addr{
		netip.MustParseAddr("89.211.20.20"),
		netip.MustParseAddr("82.114.161.1"),
		netip.MustParseAddr("10.9.9.9"), // unknown
	}
	results, err := client.Lookup(context.Background(), addrs)
	if err != nil {
		t.Fatalf("Lookup: %v", err)
	}
	if len(results) != 3 {
		t.Fatalf("got %d results, want 3", len(results))
	}
	if !results[0].Found || results[0].ASN != 42298 || results[0].Country != "QA" {
		t.Fatalf("result[0] = %+v", results[0])
	}
	if !strings.Contains(results[0].ASName, "OOREDOO") {
		t.Fatalf("ASName = %q", results[0].ASName)
	}
	if !results[1].Found || results[1].ASN != 12486 {
		t.Fatalf("result[1] = %+v", results[1])
	}
	if results[2].Found {
		t.Fatalf("result[2] should be not-found: %+v", results[2])
	}
	// Order preserved.
	if results[1].Addr != addrs[1] {
		t.Fatal("result order not preserved")
	}
}

func TestWhoisEmptyQuery(t *testing.T) {
	client, _ := testWhoisPair(t)
	results, err := client.Lookup(context.Background(), nil)
	if err != nil || results != nil {
		t.Fatalf("empty lookup = %v, %v", results, err)
	}
}

func TestWhoisSingleQueryMode(t *testing.T) {
	_, tab := testWhoisPair(t)
	srv := &WhoisServer{Table: tab}
	client, server := net.Pipe()
	go srv.ServeConn(server)
	defer client.Close()

	client.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // test
	if _, err := client.Write([]byte("89.211.20.20\n")); err != nil {
		t.Fatalf("write: %v", err)
	}
	buf := make([]byte, 4096)
	n, _ := client.Read(buf)
	out := string(buf[:n])
	for n2, err := client.Read(buf); err == nil; n2, err = client.Read(buf) {
		out += string(buf[:n2])
	}
	if !strings.Contains(out, "42298") || !strings.Contains(out, "OOREDOO") {
		t.Fatalf("single-query response missing fields: %q", out)
	}
}

func TestWhoisGarbageLine(t *testing.T) {
	client, _ := testWhoisPair(t)
	// The client only sends valid addresses, so exercise the server
	// directly through a raw session.
	_ = client
	tab := &ASTable{}
	srv := &WhoisServer{Table: tab}
	c, s := net.Pipe()
	go srv.ServeConn(s)
	defer c.Close()
	c.SetDeadline(time.Now().Add(2 * time.Second)) //nolint:errcheck // test
	c.Write([]byte("begin\nnot-an-ip\nend\n"))     //nolint:errcheck // test
	buf := make([]byte, 4096)
	var out strings.Builder
	for {
		n, err := c.Read(buf)
		out.Write(buf[:n])
		if err != nil {
			break
		}
	}
	if !strings.Contains(out.String(), "Error") {
		t.Fatalf("expected error line for garbage query, got %q", out.String())
	}
}

func TestParseWhoisLine(t *testing.T) {
	line := "42298   | 89.211.20.20     | 89.211.0.0/16       | QA | ripencc  | 2010-01-01 | OOREDOO-AS Ooredoo Q.S.C."
	res, ok := parseWhoisLine(line)
	if !ok || res.ASN != 42298 || res.Country != "QA" || !res.Found {
		t.Fatalf("parse = %+v, %v", res, ok)
	}
	if res.ASName != "OOREDOO-AS Ooredoo Q.S.C." {
		t.Fatalf("AS name = %q", res.ASName)
	}
	// Header and banner lines parse as not-ok.
	for _, junk := range []string{
		"AS      | IP               | BGP Prefix          | CC | Registry | Allocated  | AS Name",
		"Bulk mode; one IP per line.",
		"",
	} {
		if _, ok := parseWhoisLine(junk); ok {
			t.Errorf("junk line parsed as result: %q", junk)
		}
	}
}

func TestParseWhoisLineNA(t *testing.T) {
	line := "NA      | 10.9.9.9         | NA                  | NA | NA       | NA         | NA"
	res, ok := parseWhoisLine(line)
	if !ok || res.Found {
		t.Fatalf("NA line = %+v, %v; want found=false", res, ok)
	}
}

func TestWhoisRoundTripProperty(t *testing.T) {
	// Any address in the table round-trips through the wire protocol with
	// the same ASN.
	tab := &ASTable{}
	tab.Add(ASRecord{ASN: 64500, Name: "TEST-AS", Country: "US", Prefix: netip.MustParsePrefix("198.51.0.0/16")})
	srv := &WhoisServer{Table: tab}
	client := &WhoisClient{Dial: func(ctx context.Context) (net.Conn, error) {
		c, s := net.Pipe()
		go srv.ServeConn(s)
		return c, nil
	}}
	f := func(a, b uint8) bool {
		addr := netip.AddrFrom4([4]byte{198, 51, a, b})
		results, err := client.Lookup(context.Background(), []netip.Addr{addr})
		if err != nil || len(results) != 1 {
			return false
		}
		return results[0].Found && results[0].ASN == 64500 && results[0].Addr == addr
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}
