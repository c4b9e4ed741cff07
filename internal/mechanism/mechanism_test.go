package mechanism

import (
	"bytes"
	"net"
	"net/netip"
	"testing"
)

func TestKindsAndEvidence(t *testing.T) {
	if got := Kinds(); got[0] != KindHTTP || len(got) != 4 {
		t.Fatalf("Kinds() = %v", got)
	}
	dns, ok := MatchDNS(netip.MustParseAddr("203.0.113.40"), false, 300)
	if !ok || dns.Product != ProductNetsweeper {
		t.Fatalf("MatchDNS sinkhole = %+v, %v", dns, ok)
	}
	if dns.Evidence() != "sinkhole=203.0.113.40 ttl=300" {
		t.Fatalf("evidence = %q", dns.Evidence())
	}
	nx, ok := MatchDNS(netip.Addr{}, true, 0)
	if !ok || nx.Product != ProductSmartFilter || nx.Evidence() != "nxdomain injection" {
		t.Fatalf("MatchDNS nxdomain = %+v, %v", nx, ok)
	}
	if _, ok := MatchDNS(netip.MustParseAddr("203.0.113.40"), false, 999); ok {
		t.Fatal("TTL mismatch must reject the sinkhole attribution")
	}
}

func TestMatchRST(t *testing.T) {
	sig, ok := MatchRST(128, 16384, true)
	if !ok || sig.Product != ProductBlueCoat {
		t.Fatalf("MatchRST = %+v, %v", sig, ok)
	}
	if _, ok := MatchRST(128, 16384, false); ok {
		t.Fatal("sidedness mismatch must reject")
	}
	if sig.Evidence() != "rst ttl=128 win=16384 bidirectional" {
		t.Fatalf("evidence = %q", sig.Evidence())
	}
}

func TestMatchSNI(t *testing.T) {
	drop, ok := MatchSNI(true, 0, 0, true)
	if !ok || drop.Product != ProductBlueCoat {
		t.Fatalf("MatchSNI drop = %+v, %v", drop, ok)
	}
	rst, ok := MatchSNI(false, 64, 4096, false)
	if !ok || rst.Product != ProductNetsweeper {
		t.Fatalf("MatchSNI reset = %+v, %v", rst, ok)
	}
	if rst.Evidence() != "sni reset ttl=64 win=4096; esni-style omission evades" {
		t.Fatalf("evidence = %q", rst.Evidence())
	}
	if _, ok := MatchSNI(false, 64, 4096, true); ok {
		t.Fatal("esni-quirk mismatch must reject")
	}
}

func TestSortFindings(t *testing.T) {
	fs := []Finding{
		{Kind: KindSNI, Product: "B"},
		{Kind: KindDNS, Product: "Z"},
		{Kind: KindSNI, Product: "A"},
		{Kind: KindHTTP, Product: "C"},
	}
	SortFindings(fs)
	want := []Finding{
		{Kind: KindHTTP, Product: "C"},
		{Kind: KindDNS, Product: "Z"},
		{Kind: KindSNI, Product: "A"},
		{Kind: KindSNI, Product: "B"},
	}
	for i := range want {
		if fs[i] != want[i] {
			t.Fatalf("sorted[%d] = %+v, want %+v", i, fs[i], want[i])
		}
	}
}

func TestDNSQueryRoundTrip(t *testing.T) {
	q, err := BuildQuery(0x1234, "Global-Media-Freedom.Org")
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMessage(q)
	if err != nil {
		t.Fatal(err)
	}
	if m.ID != 0x1234 || m.Response || m.Question != "global-media-freedom.org" {
		t.Fatalf("parsed query = %+v", m)
	}
}

func TestDNSResponseRoundTrip(t *testing.T) {
	addr := netip.MustParseAddr("203.0.113.40")
	resp, err := BuildResponse(7, "blocked.example", RCodeNoError, []Answer{{TTL: 300, Addr: addr}})
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMessage(resp)
	if err != nil {
		t.Fatal(err)
	}
	if !m.Response || m.RCode != RCodeNoError || len(m.Answers) != 1 {
		t.Fatalf("parsed response = %+v", m)
	}
	if a := m.Answers[0]; a.Addr != addr || a.TTL != 300 || a.Name != "blocked.example" {
		t.Fatalf("answer = %+v", a)
	}

	nx, err := BuildResponse(8, "gone.example", RCodeNXDomain, nil)
	if err != nil {
		t.Fatal(err)
	}
	m, err = ParseMessage(nx)
	if err != nil {
		t.Fatal(err)
	}
	if m.RCode != RCodeNXDomain || len(m.Answers) != 0 {
		t.Fatalf("nxdomain response = %+v", m)
	}
}

func TestDNSCompressionPointer(t *testing.T) {
	// Hand-built response whose answer name is a pointer to the question
	// name at offset 12 (the form real resolvers emit).
	var b []byte
	b = append(b, 0x00, 0x01, 0x81, 0x80, 0x00, 0x01, 0x00, 0x01, 0, 0, 0, 0)
	b = append(b, 1, 'a', 7, 'e', 'x', 'a', 'm', 'p', 'l', 'e', 0) // a.example
	b = append(b, 0, 1, 0, 1)                                      // A IN
	b = append(b, 0xc0, 12)                                        // ptr -> question
	b = append(b, 0, 1, 0, 1, 0, 0, 0, 60, 0, 4, 192, 0, 2, 1)
	m, err := ParseMessage(b)
	if err != nil {
		t.Fatal(err)
	}
	if m.Question != "a.example" || len(m.Answers) != 1 || m.Answers[0].Name != "a.example" {
		t.Fatalf("parsed = %+v", m)
	}
	if m.Answers[0].Addr != netip.MustParseAddr("192.0.2.1") {
		t.Fatalf("addr = %s", m.Answers[0].Addr)
	}

	// A pointer loop must error out, not spin.
	loop := append([]byte{0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0}, 0xc0, 12, 0, 1, 0, 1)
	if _, err := ParseMessage(loop); err == nil {
		t.Fatal("pointer loop parsed without error")
	}
}

func TestDNSTCPFraming(t *testing.T) {
	q, err := BuildQuery(9, "example.org")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := WriteTCP(&buf, q); err != nil {
		t.Fatal(err)
	}
	got, err := ReadTCP(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, q) {
		t.Fatalf("framed round trip mismatch: %x != %x", got, q)
	}
}

func TestServeDNSConn(t *testing.T) {
	client, server := net.Pipe()
	done := make(chan struct{})
	go func() {
		defer close(done)
		Resolve(func(name string) (int, []Answer) {
			if name == "blocked.example" {
				return RCodeNoError, []Answer{{TTL: 300, Addr: netip.MustParseAddr("203.0.113.40")}}
			}
			return RCodeNXDomain, nil
		}).ServeConn(server)
	}()
	q, _ := BuildQuery(1, "blocked.example")
	if err := WriteTCP(client, q); err != nil {
		t.Fatal(err)
	}
	raw, err := ReadTCP(client)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ParseMessage(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(m.Answers) != 1 || m.Answers[0].Addr != netip.MustParseAddr("203.0.113.40") {
		t.Fatalf("sinkhole answer = %+v", m)
	}
	client.Close()
	<-done
}

func TestClientHelloRoundTrip(t *testing.T) {
	rec := BuildClientHello("global-lgbt.org")
	if n, ok := RecordLength(rec); !ok || n != len(rec) {
		t.Fatalf("RecordLength = %d, %v (len %d)", n, ok, len(rec))
	}
	sni, present, err := ParseClientHello(rec)
	if err != nil || !present || sni != "global-lgbt.org" {
		t.Fatalf("ParseClientHello = %q, %v, %v", sni, present, err)
	}

	// ESNI-style omission: well-formed hello, no server_name extension.
	bare := BuildClientHello("")
	sni, present, err = ParseClientHello(bare)
	if err != nil || present || sni != "" {
		t.Fatalf("omitted SNI parse = %q, %v, %v", sni, present, err)
	}
}

func TestClientHelloDeterministic(t *testing.T) {
	a := BuildClientHello("example.org")
	b := BuildClientHello("example.org")
	if !bytes.Equal(a, b) {
		t.Fatal("BuildClientHello is not deterministic")
	}
}

func TestParseClientHelloRejectsNonTLS(t *testing.T) {
	for _, in := range [][]byte{
		nil,
		[]byte("GET / HTTP/1.1\r\n\r\n"),
		{0x16, 0x03},
		BuildServerHello(), // handshake record, but not a ClientHello
	} {
		if _, _, err := ParseClientHello(in); err == nil {
			t.Fatalf("ParseClientHello(%q) accepted non-ClientHello input", in)
		}
	}
}

func TestServerHello(t *testing.T) {
	sh := BuildServerHello()
	if !IsServerHello(sh) {
		t.Fatal("BuildServerHello not recognized by IsServerHello")
	}
	if IsServerHello(BuildClientHello("x.example")) {
		t.Fatal("ClientHello misrecognized as ServerHello")
	}
	if n, ok := RecordLength(sh); !ok || n != len(sh) {
		t.Fatalf("ServerHello RecordLength = %d, %v (len %d)", n, ok, len(sh))
	}
}
