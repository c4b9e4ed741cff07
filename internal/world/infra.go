package world

import (
	"fmt"
	"net/netip"

	"filtermap/internal/geo"
	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
	"filtermap/internal/products/bluecoat"
	"filtermap/internal/products/netsweeper"
	"filtermap/internal/products/smartfilter"
	"filtermap/internal/urllist"
)

// buildInfrastructure creates the research and vendor-cloud side of the
// world: lab and scan vantages, the whois service, vendor submission
// portals, and the researcher hosting range.
func (w *World) buildInfrastructure() error {
	// University of Toronto lab (§4.1's comparison vantage).
	if err := w.addAS(239, "UTORONTO - University of Toronto", "CA", "128.100.0.0/16"); err != nil {
		return err
	}
	utISP, err := w.Net.AddISP("UToronto")
	if err != nil {
		return err
	}
	w.Lab, err = w.Net.AddHost(netip.MustParseAddr("128.100.50.10"), HostLab, utISP)
	if err != nil {
		return err
	}

	// Research scan vantage (the host Shodan-style sweeps run from).
	if err := w.addAS(237, "MERIT-AS - research network", "US", "198.108.0.0/16"); err != nil {
		return err
	}
	w.ScanVantage, err = w.Net.AddHost(netip.MustParseAddr("198.108.1.10"), HostScanVantage, nil)
	if err != nil {
		return err
	}

	// Out-of-band proxy vantage (the §6.2 submission countermeasure).
	if err := w.addAS(64510, "FREEPROXY-NET", "NL", "185.38.0.0/16"); err != nil {
		return err
	}
	w.ProxyVantage, err = w.Net.AddHost(netip.MustParseAddr("185.38.7.7"), "exit7.freeproxy.example", nil)
	if err != nil {
		return err
	}

	// Team Cymru-style whois service.
	if err := w.addAS(23028, "CYMRU-AS", "US", "38.229.0.0/16"); err != nil {
		return err
	}
	whoisHost, err := w.Net.AddHost(netip.MustParseAddr("38.229.1.1"), HostWhois, nil)
	if err != nil {
		return err
	}
	if _, err := whoisHost.Serve(geo.WhoisPort, netsim.Public, &geo.WhoisServer{Table: w.ASTable}); err != nil {
		return err
	}

	// Vendor cloud services.
	if err := w.addAS(64497, "BLUECOAT-CLOUD", "US", "199.91.0.0/16"); err != nil {
		return err
	}
	if err := w.serveVendorHost("199.91.1.10", HostSiteReview, bluecoat.SiteReviewHandler(w.BlueCoatDB)); err != nil {
		return err
	}
	if err := w.serveVendorHost("199.91.2.10", HostCfAuth, bluecoat.CfAuthHandler()); err != nil {
		return err
	}

	if err := w.addAS(64498, "MCAFEE-CLOUD", "US", "161.69.0.0/16"); err != nil {
		return err
	}
	if err := w.serveVendorHost("161.69.1.10", HostTrustedSource, smartfilter.SubmissionPortalHandler(w.SmartFilterDB)); err != nil {
		return err
	}

	if err := w.addAS(64499, "NETSWEEPER-INC", "CA", "66.207.0.0/16"); err != nil {
		return err
	}
	if err := w.serveVendorHost("66.207.1.10", HostTestASite, netsweeper.TestASiteHandler(w.NetsweeperDB)); err != nil {
		return err
	}
	if err := w.serveVendorHost("66.207.2.10", HostDenyPageTests, netsweeper.DenyPageTestsHandler(w.NetsweeperDB)); err != nil {
		return err
	}

	// Researcher site hosting: a popular commodity cloud (a range too
	// widely used for a vendor to block wholesale, §6.2).
	if err := w.addAS(64496, "SIMCLOUD-HOSTING", "US", "160.153.0.0/16"); err != nil {
		return err
	}
	w.hostingISP, err = w.Net.AddISP("SimCloud")
	if err != nil {
		return err
	}
	w.nextSiteIP = netip.MustParseAddr("160.153.1.1")

	return nil
}

// serveVendorHost registers a host and serves an HTTP handler on port 80.
func (w *World) serveVendorHost(ip, name string, handler httpwire.Handler) error {
	h, err := w.Net.AddHost(netip.MustParseAddr(ip), name, nil)
	if err != nil {
		return err
	}
	_, err = h.Serve(80, netsim.Public, &httpwire.Server{Handler: handler})
	return err
}

// allocSiteIP hands out sequential hosting addresses.
func (w *World) allocSiteIP() netip.Addr {
	ip := w.nextSiteIP
	w.nextSiteIP = w.nextSiteIP.Next()
	return ip
}

// HostSite registers a domain with the given content profile: DNS, a
// hosting IP, an origin server, and a content-directory entry.
func (w *World) HostSite(domain string, kind urllist.Kind, researchCategory string) error {
	return w.HostProfile(urllist.Profile{Domain: domain, Kind: kind, ResearchCategory: researchCategory})
}

// HostProfile hosts a fully specified content profile, including the
// outbound links of the linked synthetic web.
func (w *World) HostProfile(profile urllist.Profile) error {
	w.Dir.Add(profile)
	h, err := w.Net.AddHost(w.allocSiteIP(), profile.Domain, w.hostingISP)
	if err != nil {
		return fmt.Errorf("host %s: %w", profile.Domain, err)
	}
	if _, err := h.Serve(80, netsim.Public, &httpwire.Server{Handler: urllist.Handler(profile)}); err != nil {
		return err
	}
	if w.Opts.Mechanisms != nil {
		// SNI probing needs a TLS first-flight responder on 443; gated so
		// mechanism-free worlds keep their exact port surface.
		if err := serveTLSResponder(h); err != nil {
			return err
		}
	}
	return nil
}

// ProvisionTestSites stands up n fresh researcher-controlled domains of
// the given kind and returns their URLs (§4.2 step 1).
func (w *World) ProvisionTestSites(kind urllist.Kind, n int) ([]string, error) {
	urls := make([]string, 0, n)
	for i := 0; i < n; i++ {
		domain := w.Gen.Domain()
		if err := w.HostSite(domain, kind, ""); err != nil {
			return nil, err
		}
		urls = append(urls, "http://"+domain+"/")
	}
	return urls, nil
}

// buildListSites hosts every global- and local-list domain. Curated
// pages carry the seed links of the linked synthetic web (urllist
// .SeedLinks), the discovery crawler's entry points.
func (w *World) buildListSites() error {
	seedLinks := urllist.SeedLinks()
	seen := make(map[string]bool)
	host := func(list urllist.List) error {
		for _, e := range list.Entries {
			if seen[e.Domain] {
				continue
			}
			seen[e.Domain] = true
			p := urllist.Profile{
				Domain:           e.Domain,
				Kind:             urllist.ListContent,
				ResearchCategory: e.Category,
				Links:            seedLinks[e.Domain],
			}
			if err := w.HostProfile(p); err != nil {
				return err
			}
		}
		return nil
	}
	if err := host(urllist.GlobalList()); err != nil {
		return err
	}
	for _, cc := range []string{"AE", "QA", "SA", "YE"} {
		if err := host(urllist.LocalList(cc)); err != nil {
			return err
		}
	}
	return nil
}

// buildLinkedWeb hosts the hidden layer of the synthetic web: hub
// directories and category-bearing sites on no curated list, reachable
// only by following links (internal/discovery's quarry).
func (w *World) buildLinkedWeb() error {
	for _, p := range urllist.HiddenSites() {
		if err := w.HostProfile(p); err != nil {
			return err
		}
	}
	return nil
}

// CuratedDomains returns the set of domains on any curated testing list
// (the global list plus every per-country local list). Discovery marks
// blocked URLs outside this set as novel.
func CuratedDomains() map[string]bool {
	out := make(map[string]bool)
	add := func(list urllist.List) {
		for _, e := range list.Entries {
			out[e.Domain] = true
		}
	}
	add(urllist.GlobalList())
	for _, cc := range []string{"AE", "QA", "SA", "YE"} {
		add(urllist.LocalList(cc))
	}
	return out
}

// netsimVisibilityForConsole is a helper kept for readability at call
// sites in deployments.go.
func (w *World) consoleVisibility() netsim.Visibility { return w.visibility() }
