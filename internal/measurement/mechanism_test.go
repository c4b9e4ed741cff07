package measurement

import (
	"context"
	"net"
	"net/netip"
	"testing"

	"filtermap/internal/httpwire"
	"filtermap/internal/mechanism"
	"filtermap/internal/netsim"
)

// mechFixture builds a mechanism-censoring ISP with a field host and
// poisonable resolver, an honest lab with its own resolver, an outside
// origin site (HTTP 80 + TLS-responder 443), and a Netsweeper sinkhole.
type mechFixture struct {
	net      *netsim.Network
	isp      *netsim.ISP
	client   *Client
	siteAddr netip.Addr
}

const (
	mechSite = "blocked.example"
	mechOK   = "allowed.example"
)

func serveDNS(t testing.TB, h *netsim.Host, resolve mechanism.Resolve) {
	t.Helper()
	if _, err := h.Serve(53, netsim.Public, resolve); err != nil {
		t.Fatal(err)
	}
}

func serveHTTP(t testing.TB, h *netsim.Host, body string) {
	t.Helper()
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200, nil, []byte(body))
	})}
	if _, err := h.Serve(80, netsim.Public, srv); err != nil {
		t.Fatal(err)
	}
}

func serveTLS(t testing.TB, h *netsim.Host) {
	t.Helper()
	if _, err := h.Serve(443, netsim.Public, netsim.HandlerFunc(func(c net.Conn) {
		defer c.Close()
		buf := make([]byte, 4096)
		total := 0
		for {
			if n, ok := mechanism.RecordLength(buf[:total]); ok && total >= n {
				break
			}
			n, err := c.Read(buf[total:])
			total += n
			if err != nil {
				return
			}
		}
		c.Write(mechanism.BuildServerHello())
	})); err != nil {
		t.Fatal(err)
	}
}

func newMechFixture(t testing.TB) *mechFixture {
	t.Helper()
	n := netsim.New(nil)
	t.Cleanup(n.Close)

	isp, err := n.AddISP("PTCL")
	if err != nil {
		t.Fatal(err)
	}
	field, err := n.AddHost(netip.MustParseAddr("221.120.20.20"), "", isp)
	if err != nil {
		t.Fatal(err)
	}
	fieldResolver, err := n.AddHost(netip.MustParseAddr("221.120.1.53"), "", isp)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := n.AddHost(netip.MustParseAddr("128.100.50.10"), "lab.example", nil)
	if err != nil {
		t.Fatal(err)
	}
	labResolver, err := n.AddHost(netip.MustParseAddr("128.100.50.53"), "", nil)
	if err != nil {
		t.Fatal(err)
	}

	// Origin sites outside the ISP.
	site, err := n.AddHost(netip.MustParseAddr("192.0.2.10"), mechSite, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveHTTP(t, site, "content of "+mechSite)
	serveTLS(t, site)
	okSite, err := n.AddHost(netip.MustParseAddr("192.0.2.11"), mechOK, nil)
	if err != nil {
		t.Fatal(err)
	}
	serveHTTP(t, okSite, "content of "+mechOK)
	serveTLS(t, okSite)

	// Honest resolvers answer the truth; the field resolver's behavior is
	// set per test via the ISP's installed DNS filter mirror.
	honest := func(name string) (int, []mechanism.Answer) {
		addr, err := n.Resolve(name)
		if err != nil {
			return mechanism.RCodeNXDomain, nil
		}
		return mechanism.RCodeNoError, []mechanism.Answer{{Name: name, TTL: 14400, Addr: addr}}
	}
	serveDNS(t, labResolver, honest)
	// Default field resolver: honest too; tests that poison DNS replace
	// the ISP mechanisms AND this resolver's view through dnsFilterView.
	fx := &mechFixture{net: n, isp: isp, siteAddr: site.Addr()}
	serveDNS(t, fieldResolver, func(name string) (int, []mechanism.Answer) {
		if m := isp.Mechanisms(); m != nil && m.DNS != nil {
			switch v := m.DNS.FilterDNS(netip.Addr{}, name); v.Action {
			case netsim.DNSSinkhole:
				// The forged record carries the TTL quirk of the
				// signature that sinkholes to v.Addr, as the world's
				// resolvers forge it.
				ttl := uint32(0)
				for _, s := range mechanism.DNSSignatures() {
					if s.Sinkhole == v.Addr {
						ttl = s.TTL
					}
				}
				return mechanism.RCodeNoError, []mechanism.Answer{{Name: name, TTL: ttl, Addr: v.Addr}}
			case netsim.DNSNXDomain:
				return mechanism.RCodeNXDomain, nil
			}
		}
		return honest(name)
	})

	fx.client = &Client{
		Field: &Vantage{Name: "field:PTCL", Host: field, Resolver: fieldResolver.Addr()},
		Lab:   &Vantage{Name: "lab:toronto", Host: lab, Resolver: labResolver.Addr()},
	}
	return fx
}

func TestMechanismProbesDNSSinkhole(t *testing.T) {
	fx := newMechFixture(t)
	blocked := netsim.NewDomainSet(mechSite)
	sig, ok := dnsSigByProduct(mechanism.ProductNetsweeper)
	if !ok {
		t.Fatal("no netsweeper dns signature")
	}
	// Sinkhole host serving the Netsweeper block page.
	sink, err := fx.net.AddHost(sig.Sinkhole, "", nil)
	if err != nil {
		t.Fatal(err)
	}
	serveHTTP(t, sink, "<p>This page has been denied</p><p>Category: media-freedom</p><p>Powered by Netsweeper</p>")
	fx.isp.SetMechanisms(&netsim.Mechanisms{
		DNS: netsim.DNSFilterFunc(func(_ netip.Addr, name string) netsim.DNSVerdict {
			if blocked.Contains(name) {
				return netsim.DNSVerdict{Action: netsim.DNSSinkhole, Addr: sig.Sinkhole}
			}
			return netsim.DNSVerdict{Action: netsim.DNSClean}
		}),
	})

	r := fx.client.TestURLMechanisms(context.Background(), "http://"+mechSite+"/")
	if r.Verdict != Blocked || !r.Matched {
		t.Fatalf("verdict = %s matched=%v, want blocked via block page", r.Verdict, r.Matched)
	}
	if r.Mechanism != mechanism.KindDNS || r.MechProduct != mechanism.ProductNetsweeper {
		t.Fatalf("mechanism = %s/%s, want dns/Netsweeper (evidence %q)", r.Mechanism, r.MechProduct, r.MechEvidence)
	}
	probe, ok := probeByKind(r, mechanism.KindDNS)
	if !ok || !probe.Detected || probe.Sinkhole != sig.Sinkhole || probe.TTL != sig.TTL {
		t.Fatalf("dns probe = %+v", probe)
	}

	// The clean URL stays clean.
	r = fx.client.TestURLMechanisms(context.Background(), "http://"+mechOK+"/")
	if r.Censored() || r.Mechanism != "" {
		t.Fatalf("clean URL concluded %s/%s", r.Mechanism, r.MechProduct)
	}
}

func TestMechanismProbesNXDomain(t *testing.T) {
	fx := newMechFixture(t)
	blocked := netsim.NewDomainSet(mechSite)
	fx.isp.SetMechanisms(&netsim.Mechanisms{
		DNS: netsim.DNSFilterFunc(func(_ netip.Addr, name string) netsim.DNSVerdict {
			if blocked.Contains(name) {
				return netsim.DNSVerdict{Action: netsim.DNSNXDomain}
			}
			return netsim.DNSVerdict{Action: netsim.DNSClean}
		}),
	})
	r := fx.client.TestURLMechanisms(context.Background(), "http://"+mechSite+"/")
	if r.Mechanism != mechanism.KindDNS || r.MechProduct != mechanism.ProductSmartFilter {
		t.Fatalf("mechanism = %s/%s, want dns/SmartFilter", r.Mechanism, r.MechProduct)
	}
	probe, _ := probeByKind(r, mechanism.KindDNS)
	if !probe.NXDomain {
		t.Fatalf("probe = %+v, want nxdomain", probe)
	}
	if !r.Censored() {
		t.Fatal("nxdomain injection must count as censored")
	}
}

func TestMechanismProbesRST(t *testing.T) {
	fx := newMechFixture(t)
	blocked := netsim.NewDomainSet(mechSite)
	fx.isp.SetMechanisms(&netsim.Mechanisms{
		Host: netsim.HostFilterFunc(func(info netsim.DialInfo, host string) netsim.StreamVerdict {
			if blocked.Contains(host) {
				return netsim.StreamVerdict{Action: netsim.StreamReset, TTL: 64, Window: 8192}
			}
			return netsim.StreamVerdict{Action: netsim.StreamPass}
		}),
	})
	r := fx.client.TestURLMechanisms(context.Background(), "http://"+mechSite+"/")
	if r.Verdict != Anomaly {
		t.Fatalf("base verdict = %s, want anomaly", r.Verdict)
	}
	if r.Mechanism != mechanism.KindRST || r.MechProduct != mechanism.ProductNetsweeper {
		t.Fatalf("mechanism = %s/%s, want rst/Netsweeper (evidence %q)", r.Mechanism, r.MechProduct, r.MechEvidence)
	}
	probe, _ := probeByKind(r, mechanism.KindRST)
	if !probe.Detected || probe.TTL != 64 || probe.Window != 8192 || probe.Bidirectional {
		t.Fatalf("rst probe = %+v", probe)
	}
	if !r.Censored() {
		t.Fatal("rst injection must count as censored")
	}
}

func TestMechanismProbesSNIDrop(t *testing.T) {
	fx := newMechFixture(t)
	blocked := netsim.NewDomainSet(mechSite)
	// Blue Coat-style: silent drop, blocks even without SNI.
	fx.isp.SetMechanisms(&netsim.Mechanisms{
		SNI: netsim.SNIFilterFunc(func(info netsim.DialInfo, sni string, present bool) netsim.StreamVerdict {
			if blocked.Contains(sni) {
				return netsim.StreamVerdict{Action: netsim.StreamDrop}
			}
			return netsim.StreamVerdict{Action: netsim.StreamPass}
		}),
	})
	r := fx.client.TestURLMechanisms(context.Background(), "http://"+mechSite+"/")
	if r.Verdict != Accessible {
		t.Fatalf("base verdict = %s, want accessible (port 80 is clean)", r.Verdict)
	}
	if r.Mechanism != mechanism.KindSNI || r.MechProduct != mechanism.ProductBlueCoat {
		t.Fatalf("mechanism = %s/%s, want sni/Blue Coat (evidence %q)", r.Mechanism, r.MechProduct, r.MechEvidence)
	}
	probe, _ := probeByKind(r, mechanism.KindSNI)
	if !probe.Drop || !probe.BlocksWithoutSNI {
		t.Fatalf("sni probe = %+v", probe)
	}
}

func TestMechanismProbesSNIResetESNIEvades(t *testing.T) {
	fx := newMechFixture(t)
	blocked := netsim.NewDomainSet(mechSite)
	// Netsweeper-style: reset on SNI, omission evades.
	fx.isp.SetMechanisms(&netsim.Mechanisms{
		SNI: netsim.SNIFilterFunc(func(info netsim.DialInfo, sni string, present bool) netsim.StreamVerdict {
			if !present {
				return netsim.StreamVerdict{Action: netsim.StreamPass}
			}
			if blocked.Contains(sni) {
				return netsim.StreamVerdict{Action: netsim.StreamReset, TTL: 64, Window: 4096}
			}
			return netsim.StreamVerdict{Action: netsim.StreamPass}
		}),
	})
	r := fx.client.TestURLMechanisms(context.Background(), "http://"+mechSite+"/")
	if r.Mechanism != mechanism.KindSNI || r.MechProduct != mechanism.ProductNetsweeper {
		t.Fatalf("mechanism = %s/%s, want sni/Netsweeper (evidence %q)", r.Mechanism, r.MechProduct, r.MechEvidence)
	}
	probe, _ := probeByKind(r, mechanism.KindSNI)
	if probe.Drop || probe.BlocksWithoutSNI || probe.TTL != 64 || probe.Window != 4096 {
		t.Fatalf("sni probe = %+v", probe)
	}
}

func TestTestListMechanismsOrderAndSummary(t *testing.T) {
	fx := newMechFixture(t)
	blocked := netsim.NewDomainSet(mechSite)
	fx.isp.SetMechanisms(&netsim.Mechanisms{
		Host: netsim.HostFilterFunc(func(info netsim.DialInfo, host string) netsim.StreamVerdict {
			if blocked.Contains(host) {
				return netsim.StreamVerdict{Action: netsim.StreamReset, TTL: 255, Window: 512}
			}
			return netsim.StreamVerdict{Action: netsim.StreamPass}
		}),
	})
	urls := []string{"http://" + mechOK + "/", "http://" + mechSite + "/"}
	results := fx.client.TestListMechanisms(context.Background(), urls)
	if len(results) != 2 || results[0].URL != urls[0] || results[1].URL != urls[1] {
		t.Fatalf("results out of order: %+v", results)
	}
	s := SummarizeMechanisms(results)
	if s.Total != 2 || s.Censored != 1 || s.ByMechanism[mechanism.KindRST] != 1 {
		t.Fatalf("summary = %+v", s)
	}
	if len(s.Findings) != 1 || s.Findings[0].Product != mechanism.ProductSmartFilter {
		t.Fatalf("findings = %+v", s.Findings)
	}
}

// probeByKind fetches a probe from a result.
func probeByKind(r MechanismResult, kind mechanism.Kind) (MechanismProbe, bool) {
	for _, p := range r.Probes {
		if p.Kind == kind {
			return p, true
		}
	}
	return MechanismProbe{}, false
}

// dnsSigByProduct finds a product's DNS signature.
func dnsSigByProduct(product string) (mechanism.DNSSignature, bool) {
	for _, s := range mechanism.DNSSignatures() {
		if s.Product == product {
			return s, true
		}
	}
	return mechanism.DNSSignature{}, false
}
