package world

import (
	"fmt"
	"net/netip"

	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
	"filtermap/internal/products/bluecoat"
	"filtermap/internal/products/common"
	"filtermap/internal/products/netsweeper"
	"filtermap/internal/products/smartfilter"
	"filtermap/internal/products/websense"
)

// buildBackgroundInstallations populates the Figure 1 world beyond the
// case-study countries: the Blue Coat observations in South America,
// Europe, Asia and the Middle East, the US enterprise/ISP/educational
// installations §3.2 describes (including the USAISC address), the
// SmartFilter installation in Pakistan, and a handful of decoy hosts that
// keyword search surfaces but validation must reject.
func (w *World) buildBackgroundInstallations() error {
	type bgInstall struct {
		product  string // "bluecoat", "netsweeper", "websense", "smartfilter"
		asn      int
		asName   string
		country  string
		cidr     string
		ip       string
		hostname string
	}
	installs := []bgInstall{
		// Blue Coat's new countries (§3.2).
		{"bluecoat", 7303, "Telecom Argentina", "AR", "181.96.0.0/16", "181.96.1.1", "proxy.telecom.com.ar"},
		{"bluecoat", 7418, "Telefonica Chile", "CL", "190.96.0.0/16", "190.96.1.1", "cache.tchile.cl"},
		{"bluecoat", 719, "Elisa Oyj", "FI", "91.152.0.0/16", "91.152.1.1", "gw.elisa.fi"},
		{"bluecoat", 3301, "TeliaSonera", "SE", "81.224.0.0/16", "81.224.1.1", "proxy.telia.se"},
		{"bluecoat", 9299, "Philippine Long Distance Telephone", "PH", "112.198.0.0/16", "112.198.1.1", "cache.pldt.com.ph"},
		{"bluecoat", 7470, "True Internet", "TH", "27.130.0.0/16", "27.130.1.1", "proxy.true.co.th"},
		{"bluecoat", 3462, "Chunghwa Telecom HiNet", "TW", "61.216.0.0/16", "61.216.1.1", "cache.hinet.com.tw"},
		{"bluecoat", 8551, "Bezeq International", "IL", "79.176.0.0/16", "79.176.1.1", "proxy.bezeqint.co.il"},
		{"bluecoat", 42020, "Ogero Telecom", "LB", "178.135.0.0/16", "178.135.1.1", "cache.ogero.gov.lb"},
		{"bluecoat", 29256, "Syrian Telecom", "SY", "31.9.0.0/16", "31.9.1.1", "proxy.ste.gov.sy"},
		// Blue Coat in large US networks and USAISC (§3.2).
		{"bluecoat", 7922, "COMCAST-7922", "US", "73.32.0.0/16", "73.32.1.1", "cache.comcast.example"},
		{"bluecoat", 1239, "SPRINTLINK", "US", "208.27.0.0/16", "208.27.1.1", "proxy.sprint.example"},
		{"bluecoat", 721, "DoD Network Information Center (USAISC)", "US", "140.153.0.0/16", "140.153.1.1", "gw.usaisc.army.example"},
		// Netsweeper in US educational networks (§3.2).
		{"netsweeper", 2572, "WVNET West Virginia Network", "US", "129.71.0.0/16", "129.71.1.1", "filter.wvnet.example"},
		{"netsweeper", 5078, "ONENET-AS Oklahoma Network", "US", "164.58.0.0/16", "164.58.1.1", "filter.onenet.example"},
		{"netsweeper", 2552, "MORENET Missouri Research Network", "US", "150.199.0.0/16", "150.199.1.1", "filter.more.example"},
		// Netsweeper in large US ISPs (§3.2).
		{"netsweeper", 3549, "GBLX Global Crossing", "US", "208.48.0.0/16", "208.48.1.1", "ns.gblx.example"},
		{"netsweeper", 7018, "ATT-INTERNET4", "US", "12.36.0.0/16", "12.36.1.1", "ns.att.example"},
		{"netsweeper", 701, "UUNET Verizon Business", "US", "71.240.0.0/16", "71.240.1.1", "ns.verizon.example"},
		{"netsweeper", 6389, "BELLSOUTH-NET-BLK", "US", "65.80.0.0/16", "65.80.1.1", "ns.bellsouth.example"},
		// Websense in two Texas utilities (§3.2).
		{"websense", 64550, "Texas Municipal Utility District 1", "US", "170.10.0.0/16", "170.10.1.1", "wsg.tx-util1.example"},
		{"websense", 64551, "Texas Municipal Utility District 2", "US", "170.11.0.0/16", "170.11.1.1", "wsg.tx-util2.example"},
		// SmartFilter in Pakistan (previously observed, Figure 1).
		{"smartfilter", 17557, "PKTELECOM-AS-PK Pakistan Telecom", "PK", "202.125.0.0/16", "202.125.1.1", "mwg.ptcl.net.pk"},
		// SmartFilter in a US enterprise (dual-use baseline).
		{"smartfilter", 64552, "ACME-CORP Enterprise Network", "US", "63.80.0.0/16", "63.80.1.1", "mwg.acme.example"},
	}

	for _, bg := range installs {
		if err := w.addAS(bg.asn, bg.asName, bg.country, bg.cidr); err != nil {
			return err
		}
		isp, err := w.Net.AddISP(bg.asName)
		if err != nil {
			return err
		}
		host, err := w.Net.AddHost(netip.MustParseAddr(bg.ip), bg.hostname, isp)
		if err != nil {
			return err
		}
		if err := w.installBackgroundProduct(bg.product, host); err != nil {
			return err
		}
	}
	if err := w.activateSyriaFiltering(); err != nil {
		return err
	}
	if err := w.activateEnterpriseFiltering(); err != nil {
		return err
	}
	return w.buildDecoys()
}

// ISP names for the two active background deployments.
const (
	// ISPSyrianTelecom is Syria's state ISP; its Blue Coat appliances were
	// the paper's starting observation (§1: "initial study of Syria where
	// external facing IP addresses were used to host Blue Coat products",
	// ref [32] "Behind Blue Coat").
	ISPSyrianTelecom = "Syrian Telecom"
	// ISPTexasUtility1 is the dual-use baseline: a legitimate enterprise
	// deployment (§3.2: these products "play a legitimate role in network
	// management", so usage must be confirmed, not assumed).
	ISPTexasUtility1 = "Texas Municipal Utility District 1"
)

// activateSyriaFiltering puts the already-installed Syrian Blue Coat
// appliance inline: unlike the other background installs, Syria actually
// censors with Blue Coat's own WebFilter engine — proxy avoidance via the
// vendor category plus an operator list of political content.
func (w *World) activateSyriaFiltering() error {
	isp, ok := w.Net.ISPByName(ISPSyrianTelecom)
	if !ok {
		return fmt.Errorf("world: Syrian Telecom ISP missing")
	}
	filterAddr := netip.MustParseAddr("31.9.1.1")
	filterHost, ok := w.Net.Host(filterAddr)
	if !ok {
		return fmt.Errorf("world: Syrian Blue Coat host missing")
	}
	engine := &bluecoat.Engine{
		View:          &common.SyncView{DB: w.BlueCoatDB},
		Policy:        common.NewCategoryPolicy(bluecoat.CatProxyAvoidance, bluecoat.CatPornography),
		ApplianceName: "proxy.ste.gov.sy",
	}
	for _, domain := range []string{
		"global-political-reform.org", "global-opposition-parties.org",
		"global-media-freedom.org", "worldpressherald.org",
		"global-human-rights.org", "rightswatch-intl.org",
	} {
		engine.Policy.AddCustom(domain, "ste-blocklist")
	}
	// The appliance was installed engine-less by the background pass;
	// wire a filtering gateway on the same host for the egress path.
	gw := &common.Gateway{
		Host:     filterHost,
		Engine:   engine,
		ViaToken: "1.1 proxy.ste.gov.sy (Blue Coat ProxySG 6.5)",
	}
	if w.Opts.ScrubHeaders {
		gw.Anonymize = true
		gw.BrandTokens = bluecoat.BrandTokens
	}
	isp.SetInterceptor(gw)
	tester, err := w.Net.AddHost(netip.MustParseAddr("31.9.20.20"), "", isp)
	if err != nil {
		return err
	}
	w.FieldHosts[ISPSyrianTelecom] = tester
	return nil
}

// activateEnterpriseFiltering puts the first Texas utility's Websense
// inline with an enterprise acceptable-use policy: adult content and
// gambling are blocked, political and LGBT content is not — the
// legitimate half of the dual-use story.
func (w *World) activateEnterpriseFiltering() error {
	isp, ok := w.Net.ISPByName(ISPTexasUtility1)
	if !ok {
		return fmt.Errorf("world: Texas utility ISP missing")
	}
	filterAddr := netip.MustParseAddr("170.10.1.1")
	filterHost, ok := w.Net.Host(filterAddr)
	if !ok {
		return fmt.Errorf("world: Texas utility Websense host missing")
	}
	engine := &websense.Engine{
		View:      &common.SyncView{DB: w.WebsenseDB},
		Policy:    common.NewCategoryPolicy(websense.CatAdultContent, websense.CatGambling),
		BlockHost: "wsg.tx-util1.example",
	}
	gw := &common.Gateway{
		Host:     filterHost,
		Engine:   engine,
		ViaToken: "1.1 wsg.tx-util1.example (Websense Content Gateway)",
	}
	if w.Opts.ScrubHeaders {
		gw.Anonymize = true
		gw.BrandTokens = websense.BrandTokens
	}
	isp.SetInterceptor(gw)
	tester, err := w.Net.AddHost(netip.MustParseAddr("170.10.20.20"), "", isp)
	if err != nil {
		return err
	}
	w.FieldHosts[ISPTexasUtility1] = tester
	return nil
}

// installBackgroundProduct mounts a product's network faces on a host.
// Background installs do not intercept anything — identification only
// observes their consoles, which is all §3 can see from outside.
func (w *World) installBackgroundProduct(product string, host *netsim.Host) error {
	vis := w.consoleVisibility()
	scrub := w.Opts.ScrubHeaders
	switch product {
	case "bluecoat":
		_, err := bluecoat.Install(host, bluecoat.Config{ConsoleVisibility: vis, Scrub: scrub})
		return err
	case "netsweeper":
		engine := &netsweeper.Engine{
			View:   &common.SyncView{DB: w.NetsweeperDB},
			Policy: common.NewCategoryPolicy(netsweeper.CatPornography),
		}
		_, err := netsweeper.Install(host, netsweeper.Config{Engine: engine, WebAdminVisibility: vis, Scrub: scrub})
		return err
	case "websense":
		engine := &websense.Engine{
			View:   &common.SyncView{DB: w.WebsenseDB},
			Policy: common.NewCategoryPolicy(websense.CatAdultContent),
		}
		_, err := websense.Install(host, websense.Config{Engine: engine, ConsoleVisibility: vis, Scrub: scrub})
		return err
	case "smartfilter":
		engine := &smartfilter.Engine{
			View:   &common.SyncView{DB: w.SmartFilterDB},
			Policy: common.NewCategoryPolicy(smartfilter.CatPornography),
		}
		_, err := smartfilter.Install(host, smartfilter.Config{Engine: engine, ConsoleVisibility: vis, Scrub: scrub})
		return err
	default:
		panic("world: unknown background product " + product)
	}
}

// buildDecoys stands up hosts whose banners contain product keywords
// without hosting the products: the false positives §3.1's validation
// stage exists to reject.
func (w *World) buildDecoys() error {
	if err := w.addAS(64553, "SMALLWEB-HOSTING", "US", "205.140.0.0/16"); err != nil {
		return err
	}
	decoys := []struct {
		ip, name string
		handler  httpwire.Handler
	}{
		{
			// A technology blog discussing Netsweeper and webadmin paths.
			"205.140.1.1", "techblog.example",
			staticPage("Filtering Tech Review",
				`<h1>Review: content filters compared</h1>
<p>We compared Netsweeper's webadmin console against competitors. The
deny page at 8080/webadmin/deny is distinctive. McAfee Web Gateway and
Blue Coat ProxySG were also tested, as was the infamous "url blocked"
page and cfru= redirect flow.</p>`),
		},
		{
			// A generic router admin page titled "WebAdmin".
			"205.140.1.2", "router.smallisp.example",
			staticPage("WebAdmin Router Console",
				`<h1>Router WebAdmin</h1><p>Firmware 2.4 login.</p>`),
		},
		{
			// A forum thread mentioning blockpage.cgi.
			"205.140.1.3", "forum.netops.example",
			staticPage("NetOps Forum - proxy thread",
				`<h1>Thread: blockpage.cgi keeps appearing</h1>
<p>Our users hit ws-session redirects from a websense box upstream.</p>`),
		},
	}
	for _, d := range decoys {
		if err := w.serveVendorHost(d.ip, d.name, d.handler); err != nil {
			return err
		}
	}
	return nil
}

func staticPage(title, body string) httpwire.Handler {
	return httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		return httpwire.NewResponse(200,
			httpwire.NewHeader("Content-Type", "text/html; charset=utf-8", "Server", "nginx/1.2.1"),
			common.HTMLPage(title, body))
	})
}
