// Package smartfilter implements McAfee SmartFilter and the McAfee Web
// Gateway it ships on (Table 1: "Filtering of Web content for
// enterprises").
//
// Wire behaviour reproduced for the paper's methodology:
//
//   - block pages titled "McAfee Web Gateway - Notification" announcing
//     "URL Blocked" (Table 2's Shodan keywords),
//   - a "Via-Proxy" header on gateway responses — Table 2's WhatWeb
//     signature,
//   - a TrustedSource-style customer URL submission portal ("Check Single
//     URL" / "Submit a Site"), the channel §4.3 exploits,
//   - SmartFilter is a software engine: it can run on its own McAfee Web
//     Gateway chassis or be loaded onto a Blue Coat ProxySG (§4.5:
//     "software products such as SmartFilter can be configured to run on
//     proxy appliances, such as Blue Coat's ProxySG").
//
// One master database serves many deployments: §4.3's Saudi Arabia
// deployments and UAE's Etisalat consult the same SmartFilter database
// with different category policies, which is why proxy-category sites are
// reachable in Saudi Arabia while pornography is not (challenge 1).
package smartfilter

import (
	"context"
	"fmt"
	"net/url"
	"time"

	"filtermap/internal/categorydb"
	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
	"filtermap/internal/products/common"
	"filtermap/internal/simclock"
)

// Identity strings.
const (
	// Name is the product name used in reports.
	Name = "McAfee SmartFilter"
	// EngineName identifies the policy engine.
	EngineName = "McAfee SmartFilter"
	// GatewayBanner is the chassis banner.
	GatewayBanner = "McAfee Web Gateway 7.3"
)

// ConsolePort is the McAfee Web Gateway administration console port.
const ConsolePort = 4712

// Vendor categories.
const (
	CatPornography  = "pornography"
	CatAnonymizers  = "anonymizers"
	CatGambling     = "gambling"
	CatDrugs        = "drugs"
	CatNudity       = "nudity"
	CatPolitics     = "politics-opinion"
	CatLGBT         = "lgbt-issues"
	CatReligion     = "religion-ideology"
	CatMedia        = "general-news"
	CatHumanRights  = "human-rights-advocacy"
	CatMinority     = "minority-advocacy"
	CatMalicious    = "malicious-sites"
	CatSearchEngine = "search-engines"
)

// DefaultTaxonomy returns the SmartFilter control list categories.
func DefaultTaxonomy() []categorydb.Category {
	return []categorydb.Category{
		{Code: CatPornography, Name: "Pornography", Theme: "social"},
		{Code: CatAnonymizers, Name: "Anonymizers", Theme: "internet-tools"},
		{Code: CatGambling, Name: "Gambling", Theme: "social"},
		{Code: CatDrugs, Name: "Drugs", Theme: "social"},
		{Code: CatNudity, Name: "Nudity", Theme: "social"},
		{Code: CatPolitics, Name: "Politics/Opinion", Theme: "political"},
		{Code: CatLGBT, Name: "LGBT Issues", Theme: "social"},
		{Code: CatReligion, Name: "Religion/Ideology", Theme: "social"},
		{Code: CatMedia, Name: "General News", Theme: "political"},
		{Code: CatHumanRights, Name: "Human Rights Advocacy", Theme: "political"},
		{Code: CatMinority, Name: "Minority Advocacy", Theme: "political"},
		{Code: CatMalicious, Name: "Malicious Sites", Theme: "internet-tools"},
		{Code: CatSearchEngine, Name: "Search Engines", Theme: "internet-tools"},
	}
}

// NewDatabase creates the vendor's master SmartFilter database.
func NewDatabase(clock simclock.Clock) *categorydb.DB {
	db := categorydb.New("McAfee SmartFilter", clock)
	for _, c := range DefaultTaxonomy() {
		db.AddCategory(c)
	}
	return db
}

// Engine is the SmartFilter policy engine.
type Engine struct {
	// View is the deployment's synced view of the master database.
	View *common.SyncView
	// Policy selects which categories this deployment blocks.
	Policy *common.CategoryPolicy
	// GatewayName appears in the Via-Proxy header, e.g.
	// "mwg1.bayanat.com.sa".
	GatewayName string
}

// ProductName implements common.PolicyEngine.
func (e *Engine) ProductName() string { return EngineName }

// Decide implements common.PolicyEngine.
func (e *Engine) Decide(req *httpwire.Request, at time.Time) common.Decision {
	host := req.Hostname()
	if host == "" {
		return common.Pass
	}
	if label, ok := e.Policy.CustomCategory(host); ok {
		return common.Decision{Block: true, Category: label, Response: e.BlockPage(req, label)}
	}
	cat, ok := e.View.Lookup(host, at)
	if !ok || !e.Policy.Enabled(cat) {
		return common.Pass
	}
	return common.Decision{Block: true, Category: cat, Response: e.BlockPage(req, cat)}
}

// BlockPage renders the McAfee Web Gateway notification page. Its title is
// Table 2's HTML signature and the "URL Blocked" heading is one of the
// Shodan keywords.
func (e *Engine) BlockPage(req *httpwire.Request, category string) *httpwire.Response {
	display := category
	if c, ok := e.View.DB.Category(category); ok {
		display = c.Name
	}
	body := fmt.Sprintf(`<h1>URL Blocked</h1>
%s
%s
%s
<hr>
<p><i>generated by McAfee Web Gateway</i></p>`,
		common.Para("The requested URL was blocked by URL filtering policy."),
		common.Para("URL: %s", req.FullURL()),
		common.Para("Category: %s", display))
	hdr := httpwire.NewHeader(
		"Content-Type", "text/html; charset=utf-8",
		"Cache-Control", "no-cache",
		"Server", GatewayBanner,
		"Via-Proxy", e.GatewayName,
	)
	return httpwire.NewResponse(403, hdr, common.HTMLPage("McAfee Web Gateway - Notification", body))
}

// Config controls gateway installation.
type Config struct {
	// Name is the gateway hostname used in Via-Proxy headers.
	Name string
	// Engine is the SmartFilter engine (required).
	Engine *Engine
	// ConsoleVisibility controls external reachability of the admin
	// console.
	ConsoleVisibility netsim.Visibility
	// Scrub strips brand evidence (Via-Proxy header, page titles) from
	// every response — Table 5's header-scrubbing evasion, which defeats
	// both of this product's Table 2 signatures.
	Scrub bool
}

// BrandTokens are the strings a scrubbing operator blanks from pages.
var BrandTokens = []string{"McAfee", "Web Gateway", "SmartFilter"}

// Install mounts a McAfee Web Gateway on host — its administration
// console, also answering on port 80 — and returns its gateway. The
// caller installs the gateway as the ISP's interceptor to put it inline.
func Install(host *netsim.Host, cfg Config) (*common.Gateway, error) {
	if cfg.Name == "" {
		cfg.Name = host.Name()
	}
	if cfg.Engine != nil && cfg.Engine.GatewayName == "" {
		cfg.Engine.GatewayName = cfg.Name
	}
	host.SetBypassIntercept(true)
	gw := &common.Gateway{
		Host:     host,
		Engine:   cfg.Engine,
		ViaToken: fmt.Sprintf("1.1 %s (McAfee Web Gateway)", cfg.Name),
	}
	if cfg.Scrub {
		gw.Anonymize = true
		gw.BrandTokens = BrandTokens
		gw.ViaToken = ""
	}

	// Administration console: its title carries the "mcafee web gateway"
	// keyword scanners search for.
	mux := &httpwire.Mux{}
	mux.RouteFunc("/", func(req *httpwire.Request) *httpwire.Response {
		body := fmt.Sprintf(`<h1>McAfee Web Gateway</h1>
%s
<form action="/login" method="post">
<input name="user"><input name="pass" type="password">
<input type="submit" value="Login"></form>`,
			common.Para("Appliance %s — Web Gateway administration.", cfg.Name))
		return httpwire.NewResponse(200,
			httpwire.NewHeader("Content-Type", "text/html; charset=utf-8", "Server", GatewayBanner, "Via-Proxy", cfg.Name),
			common.HTMLPage("McAfee Web Gateway", body))
	})
	var consoleHandler httpwire.Handler = mux
	srv := &httpwire.Server{Handler: consoleHandler, ServerHeader: GatewayBanner}
	if cfg.Scrub {
		srv = &httpwire.Server{Handler: common.ScrubHandler(mux, BrandTokens)}
	}
	if _, err := host.Serve(ConsolePort, cfg.ConsoleVisibility, srv); err != nil {
		return nil, err
	}

	// Port 80 answers with the same console page (the misconfigured
	// external face §3 finds).
	if _, err := host.Serve(80, cfg.ConsoleVisibility, srv); err != nil {
		return nil, err
	}

	return gw, nil
}

// SubmissionPortalHandler returns the TrustedSource-style customer URL
// submission service:
//
//	GET  /url-check?url=<u>            – current categorization
//	POST /url-submit                   – url=<u>&category=<code>[&email=<e>]
//	GET  /url-submit/status?id=<n>
func SubmissionPortalHandler(db *categorydb.DB) httpwire.Handler {
	mux := &httpwire.Mux{}
	mux.RouteFunc("/url-check", func(req *httpwire.Request) *httpwire.Response {
		raw := req.URL.Query().Get("url")
		domain := categorydb.DomainOfURL(raw)
		cat, ok := db.Lookup(domain)
		var body string
		if ok {
			display := cat
			if c, k := db.Category(cat); k {
				display = c.Name
			}
			body = common.Para("URL %s is categorized as %q.", raw, display)
		} else {
			body = common.Para("URL %s is not currently categorized.", raw)
		}
		return httpwire.NewResponse(200, htmlHdr(), common.HTMLPage("TrustedSource - Check Single URL", "<h1>URL Check</h1>"+body))
	})
	mux.RouteFunc("/url-submit", func(req *httpwire.Request) *httpwire.Response {
		if req.Method != "POST" {
			body := `<h1>Submit a Site</h1>
<form method="post" action="/url-submit">
<input name="url"><input name="category"><input name="email">
<input type="submit" value="Submit"></form>`
			return httpwire.NewResponse(200, htmlHdr(), common.HTMLPage("TrustedSource - Submit a Site", body))
		}
		vals, err := url.ParseQuery(string(req.Body))
		if err != nil || vals.Get("url") == "" {
			return httpwire.NewResponse(400, htmlHdr(), common.HTMLPage("Submit a Site", "<p>missing url</p>"))
		}
		ip := netsim.AddrOf(req.RemoteAddr)
		sub, err := db.Submit(vals.Get("url"), vals.Get("category"), ip, vals.Get("email"))
		if err != nil {
			return httpwire.NewResponse(400, htmlHdr(), common.HTMLPage("Submit a Site", common.Para("error: %v", err)))
		}
		body := common.Para("Thank you. Reference %d. Proposed category %q will be reviewed.", sub.ID, sub.RequestedCategory)
		return httpwire.NewResponse(200, htmlHdr(), common.HTMLPage("TrustedSource - Submission Received", "<h1>Submission received</h1>"+body))
	})
	mux.RouteFunc("/url-submit/status", func(req *httpwire.Request) *httpwire.Response {
		id := 0
		fmt.Sscanf(req.URL.Query().Get("id"), "%d", &id) //nolint:errcheck // zero id yields not-found
		sub, ok := db.SubmissionStatus(id)
		if !ok {
			return httpwire.NewResponse(404, htmlHdr(), common.HTMLPage("TrustedSource", "<p>unknown submission</p>"))
		}
		return httpwire.NewResponse(200, htmlHdr(),
			common.HTMLPage("TrustedSource - Status", common.Para("Submission %d: %s", sub.ID, sub.State)))
	})
	return mux
}

func htmlHdr() *httpwire.Header {
	return httpwire.NewHeader("Content-Type", "text/html; charset=utf-8")
}

// SubmitViaPortal submits a URL for blocking through the vendor portal
// over HTTP, exercising the full network path a researcher would (§4.3:
// "We then submitted five of these domains to SmartFilter for blocking").
func SubmitViaPortal(ctx context.Context, client *httpwire.Client, portalHost, rawurl, category, email string) (*httpwire.Response, error) {
	form := url.Values{"url": {rawurl}, "category": {category}, "email": {email}}
	req, err := httpwire.NewRequest("POST", "http://"+portalHost+"/url-submit")
	if err != nil {
		return nil, err
	}
	req.Header.Add("Content-Type", "application/x-www-form-urlencoded")
	req.Body = []byte(form.Encode())
	return client.Do(ctx, req)
}
