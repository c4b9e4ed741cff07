package world

import (
	"net/netip"
	"time"

	"filtermap/internal/netsim"
	"filtermap/internal/products/bluecoat"
	"filtermap/internal/products/common"
	"filtermap/internal/products/netsweeper"
	"filtermap/internal/products/smartfilter"
	"filtermap/internal/products/websense"
	"filtermap/internal/simclock"
)

// Sync schedules. Most deployments pull vendor updates every 6 hours; Du
// pulls weekly, which is the mechanism behind Table 3's 5/6 result (see
// campaigns.go for the arithmetic).
const (
	frequentSync = 6 * time.Hour
	// DuSyncInterval is Du's weekly update pull.
	DuSyncInterval = 7 * 24 * time.Hour
)

// DuSyncAnchor fixes Du's weekly sync schedule: syncs at Epoch + k*week.
var DuSyncAnchor = simclock.Epoch

// WebsenseYemenCutoff is when Websense withdrew update support from Yemen
// (§2.2, 2009) — the YemenNet Websense box has a database frozen there.
var WebsenseYemenCutoff = time.Date(2009, time.August, 1, 0, 0, 0, 0, time.UTC)

// buildDeployments stands up the six Table 3 ISPs.
func (w *World) buildDeployments() error {
	if err := w.buildEtisalat(); err != nil {
		return err
	}
	if err := w.buildDu(); err != nil {
		return err
	}
	if err := w.buildOoredoo(); err != nil {
		return err
	}
	if err := w.buildSaudi(); err != nil {
		return err
	}
	return w.buildYemenNet()
}

// addISPWithTester creates an AS, ISP, filter host and in-country tester.
func (w *World) addISPWithTester(ispName string, asn int, asName, country, cidr, filterIP, filterName, testerIP string) (*netsim.ISP, *netsim.Host, error) {
	if err := w.addAS(asn, asName, country, cidr); err != nil {
		return nil, nil, err
	}
	isp, err := w.Net.AddISP(ispName)
	if err != nil {
		return nil, nil, err
	}
	filter, err := w.Net.AddHost(netip.MustParseAddr(filterIP), filterName, isp)
	if err != nil {
		return nil, nil, err
	}
	tester, err := w.Net.AddHost(netip.MustParseAddr(testerIP), "", isp)
	if err != nil {
		return nil, nil, err
	}
	w.FieldHosts[ispName] = tester
	return isp, filter, nil
}

// buildEtisalat builds UAE's incumbent: McAfee SmartFilter policy running
// on a Blue Coat ProxySG chassis (§4.5 challenge 3). Identification sees
// Blue Coat (the chassis is externally visible); confirmation shows the
// SmartFilter database drives the blocking, and Blue Coat Site Review
// submissions change nothing.
func (w *World) buildEtisalat() error {
	isp, filter, err := w.addISPWithTester(
		ISPEtisalat, ASNEtisalat, "EMIRATES-INTERNET Etisalat", "AE",
		"94.56.0.0/16", "94.56.1.1", "proxy1.emirates.net.ae", "94.56.20.20")
	if err != nil {
		return err
	}
	engine := &smartfilter.Engine{
		View: &common.SyncView{DB: w.SmartFilterDB, Interval: frequentSync, Anchor: simclock.Epoch},
		Policy: common.NewCategoryPolicy(
			smartfilter.CatPornography,
			smartfilter.CatAnonymizers,
			// Table 4 row (reconstructed): media freedom, political
			// reform, LGBT and religious-criticism content is blocked via
			// the corresponding SmartFilter categories.
			smartfilter.CatMedia,
			smartfilter.CatPolitics,
			smartfilter.CatLGBT,
			smartfilter.CatReligion,
		),
		GatewayName: "proxy1.emirates.net.ae",
	}
	gw, err := bluecoat.Install(filter, bluecoat.Config{
		Name:              "proxy1.emirates.net.ae",
		Engine:            engine,
		ConsoleVisibility: w.consoleVisibility(),
		Scrub:             w.Opts.ScrubHeaders,
	})
	if err != nil {
		return err
	}
	if w.Opts.ScrubHeaders {
		// A scrubbing operator of a stacked deployment removes the loaded
		// engine's branding too, not just the chassis's.
		gw.BrandTokens = append(gw.BrandTokens, smartfilter.BrandTokens...)
	}
	isp.SetInterceptor(gw)
	return nil
}

// buildDu builds UAE's second ISP: Netsweeper with a weekly database sync.
func (w *World) buildDu() error {
	isp, filter, err := w.addISPWithTester(
		ISPDu, ASNDu, "DU-AS1 Emirates Integrated Telecommunications", "AE",
		"94.200.0.0/16", "94.200.1.1", "ns1.du.ae", "94.200.20.20")
	if err != nil {
		return err
	}
	interval := DuSyncInterval
	if w.Opts.DisableDuSyncLag {
		interval = frequentSync
	}
	engine := &netsweeper.Engine{
		View:   &common.SyncView{DB: w.NetsweeperDB, Interval: interval, Anchor: DuSyncAnchor},
		Policy: common.NewCategoryPolicy(netsweeper.CatProxyAnonymizer, netsweeper.CatPornography),
	}
	// Table 4 row (reconstructed): Du blocks political reform, LGBT,
	// religious-criticism and minority content through an operator custom
	// list layered over the vendor categories.
	for _, domain := range []string{
		"uae-reform-now.org", "global-political-reform.org",
		"gulf-lgbt-network.org", "global-lgbt.org", "rainbowalliance.org",
		"islam-debate-forum.org", "global-religious-criticism.org",
		"shia-community-gulf.org", "global-minority-groups-religions.org",
		// Hidden linked-web sites in the same themes (on no curated list;
		// only crawling surfaces them).
		"gulf-pride-underground.org", "free-faith-forum.org",
	} {
		engine.Policy.AddCustom(domain, "du-custom-blocklist")
	}
	gw, err := netsweeper.Install(filter, netsweeper.Config{
		Name:               "ns1.du.ae",
		Engine:             engine,
		WebAdminVisibility: w.consoleVisibility(),
		AutoQueue:          true,
		Scrub:              w.Opts.ScrubHeaders,
	})
	if err != nil {
		return err
	}
	isp.SetInterceptor(gw)
	return nil
}

// buildOoredoo builds Qatar's Ooredoo: Netsweeper filtering plus a Blue
// Coat proxy used purely for traffic management (no policy engine), which
// is why Blue Coat Site Review submissions do nothing there (Table 3 row
// 2) and why identification still finds Blue Coat in Qatar.
func (w *World) buildOoredoo() error {
	isp, filter, err := w.addISPWithTester(
		ISPOoredoo, ASNOoredoo, "OOREDOO-AS Ooredoo Q.S.C.", "QA",
		"89.211.0.0/16", "89.211.1.1", "ns1.ooredoo.qa", "89.211.20.20")
	if err != nil {
		return err
	}
	engine := &netsweeper.Engine{
		View:   &common.SyncView{DB: w.NetsweeperDB, Interval: frequentSync, Anchor: simclock.Epoch},
		Policy: common.NewCategoryPolicy(netsweeper.CatProxyAnonymizer, netsweeper.CatPornography),
	}
	// Table 4 row (reconstructed): Qatar blocks LGBT and
	// religious-criticism content via custom listing.
	for _, domain := range []string{
		"qatari-lgbt-forum.org", "global-lgbt.org", "rainbowalliance.org",
		"gulf-religion-talk.org", "global-religious-criticism.org",
		// Hidden linked-web sites in the same themes.
		"gulf-pride-underground.org", "free-faith-forum.org",
	} {
		engine.Policy.AddCustom(domain, "ooredoo-custom-blocklist")
	}
	gw, err := netsweeper.Install(filter, netsweeper.Config{
		Name:               "ns1.ooredoo.qa",
		Engine:             engine,
		WebAdminVisibility: w.consoleVisibility(),
		// No automatic categorization queue at Ooredoo: §4.3's Qatar
		// pornography pre-test passes through unclassified, matching
		// Table 3's 0/5 outcome.
		AutoQueue: false,
		Scrub:     w.Opts.ScrubHeaders,
	})
	if err != nil {
		return err
	}
	isp.SetInterceptor(gw)

	// The traffic-management ProxySG beside the filter (engine-less).
	bcHost, err := w.Net.AddHost(netip.MustParseAddr("89.211.1.2"), "cache1.ooredoo.qa", isp)
	if err != nil {
		return err
	}
	if _, err := bluecoat.Install(bcHost, bluecoat.Config{
		Name:              "cache1.ooredoo.qa",
		Engine:            nil,
		ConsoleVisibility: w.consoleVisibility(),
		Scrub:             w.Opts.ScrubHeaders,
	}); err != nil {
		return err
	}
	return nil
}

// buildSaudi builds the kingdom's centralized blocking (§4.3): one
// SmartFilter policy, enforced by gateways in both Bayanat Al-Oula and
// Nournet. Pornography is enabled; the proxy/anonymizer category is NOT
// (challenge 1: "it appears that Saudi Arabia is not using the proxy
// category provided by SmartFilter").
func (w *World) buildSaudi() error {
	centralView := &common.SyncView{DB: w.SmartFilterDB, Interval: frequentSync, Anchor: simclock.Epoch}
	centralPolicy := common.NewCategoryPolicy(smartfilter.CatPornography, smartfilter.CatGambling)

	build := func(ispName string, asn int, asName, cidr, filterIP, filterName, testerIP string) error {
		isp, filter, err := w.addISPWithTester(ispName, asn, asName, "SA", cidr, filterIP, filterName, testerIP)
		if err != nil {
			return err
		}
		engine := &smartfilter.Engine{View: centralView, Policy: centralPolicy, GatewayName: filterName}
		gw, err := smartfilter.Install(filter, smartfilter.Config{
			Name:              filterName,
			Engine:            engine,
			ConsoleVisibility: w.consoleVisibility(),
			Scrub:             w.Opts.ScrubHeaders,
		})
		if err != nil {
			return err
		}
		isp.SetInterceptor(gw)
		return nil
	}
	if err := build(ISPBayanat, ASNBayanat, "BAYANAT-AL-OULA", "77.30.0.0/16", "77.30.1.1", "mwg1.bayanat.net.sa", "77.30.20.20"); err != nil {
		return err
	}
	return build(ISPNournet, ASNNournet, "NOURNET", "46.151.0.0/16", "46.151.1.1", "mwg1.nour.net.sa", "46.151.20.20")
}

// buildYemenNet builds Yemen's national ISP: Netsweeper with exactly the
// five vendor categories the §4.4 denypagetests probe found blocked, an
// operator custom list for protected content (Table 4 row), a concurrent
// license too small for peak demand (challenge 2's inconsistent
// blocking), and the legacy Websense box whose updates the vendor cut in
// 2009.
func (w *World) buildYemenNet() error {
	isp, filter, err := w.addISPWithTester(
		ISPYemenNet, ASNYemenNet, "YEMENNET", "YE",
		"82.114.160.0/19", "82.114.160.1", "ns1.yemen.net.ye", "82.114.161.20")
	if err != nil {
		return err
	}
	engine := &netsweeper.Engine{
		View: &common.SyncView{DB: w.NetsweeperDB, Interval: frequentSync, Anchor: simclock.Epoch},
		Policy: common.NewCategoryPolicy(
			netsweeper.CatAdultImage,
			netsweeper.CatPhishing,
			netsweeper.CatPornography,
			netsweeper.CatProxyAnonymizer,
			netsweeper.CatSearchKeywords,
		),
	}
	for _, domain := range []string{
		"sanaa-independent.org", "global-media-freedom.org", "worldpressherald.org",
		"yemeni-rights-forum.org", "global-human-rights.org", "rightswatch-intl.org",
		"yemen-change-now.org", "global-political-reform.org",
		"aden-free-voices.org", "global-lgbt.org",
		// Hidden linked-web sites in the same themes.
		"gulf-press-mirror.org", "exiled-editors.org",
		"detained-bloggers-list.org", "arab-spring-archive.org",
	} {
		engine.Policy.AddCustom(domain, "yemennet-custom-blocklist")
	}

	// License: 6000 seats against a 2000..9000 diurnal demand peaking at
	// 14:00 UTC — the filter fails open for the hours around the peak,
	// reproducing "some proxy URLs are accessible on runs where other
	// proxy URLs are blocked".
	license := &common.LicenseModel{
		MaxConcurrent: 6000,
		Load:          common.DiurnalLoad(2000, 9000, 14),
	}
	w.YemenLicense = &licenseHandle{MaxConcurrent: license.MaxConcurrent, Load: license.Load}

	gw, err := netsweeper.Install(filter, netsweeper.Config{
		Name:               "ns1.yemen.net.ye",
		Engine:             engine,
		License:            license,
		WebAdminVisibility: w.consoleVisibility(),
		AutoQueue:          true,
		Scrub:              w.Opts.ScrubHeaders,
	})
	if err != nil {
		return err
	}
	isp.SetInterceptor(gw)

	// The stranded Websense box (pre-2009 deployment, updates frozen). It
	// no longer intercepts, but its console is still visible — one of
	// Figure 1's Websense observations.
	wsHost, err := w.Net.AddHost(netip.MustParseAddr("82.114.160.2"), "wsg1.yemen.net.ye", isp)
	if err != nil {
		return err
	}
	wsEngine := &websense.Engine{
		View:   &common.SyncView{DB: w.WebsenseDB, Interval: frequentSync, Anchor: simclock.Epoch, FrozenAt: WebsenseYemenCutoff},
		Policy: common.NewCategoryPolicy(websense.CatProxyAvoid, websense.CatAdultContent),
	}
	if _, err := websense.Install(wsHost, websense.Config{
		Name:              "wsg1.yemen.net.ye",
		Engine:            wsEngine,
		License:           &common.LicenseModel{MaxConcurrent: 3000, Load: common.DiurnalLoad(1000, 8000, 13)},
		ConsoleVisibility: w.consoleVisibility(),
		Scrub:             w.Opts.ScrubHeaders,
	}); err != nil {
		return err
	}
	return nil
}

// YemenFilteringActive reports whether the YemenNet license currently
// permits filtering (for tests and the inconsistency benchmark).
func (w *World) YemenFilteringActive(at time.Time) bool {
	return w.YemenLicense.Load(at) <= w.YemenLicense.MaxConcurrent
}
