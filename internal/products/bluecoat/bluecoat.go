// Package bluecoat implements Blue Coat Systems' ProxySG appliance and
// WebFilter URL database (Table 1: "Web proxy (ProxySG) and URL Filter
// (Web Filter)").
//
// Wire behaviour reproduced for the paper's methodology:
//
//   - forwarded traffic carries a Via token naming the ProxySG appliance
//     (the "proxysg" Shodan keyword in Table 2),
//   - the appliance's HTTP front door redirects unauthenticated clients to
//     www.cfauth.com with a "cfru=" continuation parameter — Table 2's
//     second keyword and the WhatWeb Location signature,
//   - an explicit proxy port (8080) and a management console (8082),
//   - WebFilter block pages are ProxySG "exception pages" naming the
//     content categorization,
//   - a Site Review submission portal through which outsiders can propose
//     categorizations (§4.5 submits to the "Proxy Avoidance" category).
package bluecoat

import (
	"context"
	"encoding/base64"
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
	Name = "Blue Coat"
	// EngineName identifies the WebFilter policy engine.
	EngineName = "Blue Coat WebFilter"
	// serverBanner is the Server header the appliance emits.
	serverBanner = "Blue Coat ProxySG"
	// CfAuthHost is the Blue Coat cloud host appearing in auth redirects;
	// Table 2 uses it as the validation signature.
	CfAuthHost = "www.cfauth.com"
)

// Well-known ports.
const (
	// ProxyPort is the explicit proxy listener.
	ProxyPort = 8080
	// ConsolePort is the management console listener.
	ConsolePort = 8082
)

// Vendor categories (a representative slice of Blue Coat's taxonomy).
const (
	CatProxyAvoidance = "proxy-avoidance"
	CatPornography    = "pornography"
	CatGambling       = "gambling"
	CatNewsMedia      = "news-media"
	CatPolitical      = "political-social-advocacy"
	CatLGBT           = "lgbt"
	CatReligion       = "religion"
	CatHacking        = "hacking"
	CatPhishing       = "phishing"
	CatWebmail        = "webmail"
)

// DefaultTaxonomy returns the WebFilter category list.
func DefaultTaxonomy() []categorydb.Category {
	return []categorydb.Category{
		{Code: CatProxyAvoidance, Name: "Proxy Avoidance", Theme: "internet-tools"},
		{Code: CatPornography, Name: "Pornography", Theme: "social"},
		{Code: CatGambling, Name: "Gambling", Theme: "social"},
		{Code: CatNewsMedia, Name: "News/Media", Theme: "political"},
		{Code: CatPolitical, Name: "Political/Social Advocacy", Theme: "political"},
		{Code: CatLGBT, Name: "LGBT", Theme: "social"},
		{Code: CatReligion, Name: "Religion", Theme: "social"},
		{Code: CatHacking, Name: "Hacking", Theme: "conflict-security"},
		{Code: CatPhishing, Name: "Phishing", Theme: "internet-tools"},
		{Code: CatWebmail, Name: "Web-based Email", Theme: "internet-tools"},
	}
}

// NewDatabase creates the vendor's master WebFilter database.
func NewDatabase(clock simclock.Clock) *categorydb.DB {
	db := categorydb.New("Blue Coat WebFilter", clock)
	for _, c := range DefaultTaxonomy() {
		db.AddCategory(c)
	}
	return db
}

// Engine is the WebFilter policy engine.
type Engine struct {
	// View is the deployment's synced view of the WebFilter database.
	View *common.SyncView
	// Policy selects which categories this deployment blocks.
	Policy *common.CategoryPolicy
	// ApplianceName appears on exception pages, e.g. "proxy1.etisalat.ae".
	ApplianceName string
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

// BlockPage renders the ProxySG exception page for a category block.
func (e *Engine) BlockPage(req *httpwire.Request, category string) *httpwire.Response {
	display := category
	if c, ok := e.View.DB.Category(category); ok {
		display = c.Name
	}
	body := fmt.Sprintf(`<h1>Access Denied (content_filter_denied)</h1>
%s
%s
%s
<hr>
<p>For assistance, contact your network support team.</p>
<p><i>Blue Coat Systems, Inc.</i></p>`,
		common.Para("Your request was denied because of its content categorization: %q", display),
		common.Para("URL: %s", req.FullURL()),
		common.Para("This exception page was generated by the Blue Coat ProxySG appliance %s.", e.ApplianceName))
	hdr := httpwire.NewHeader(
		"Content-Type", "text/html; charset=utf-8",
		"Cache-Control", "no-cache",
		"Server", serverBanner,
		"Via", viaToken(e.ApplianceName),
	)
	return httpwire.NewResponse(403, hdr, common.HTMLPage("Access Denied", body))
}

func viaToken(name string) string {
	return fmt.Sprintf("1.1 %s (Blue Coat ProxySG 6.5)", name)
}

// Config controls appliance installation.
type Config struct {
	// Name is the appliance hostname used in Via tokens and pages.
	Name string
	// Engine is the policy engine; nil deploys the appliance as a pure
	// traffic-management proxy (Etisalat's configuration in §4.5).
	Engine common.PolicyEngine
	// ConsoleVisibility controls whether the management ports are
	// reachable from outside the ISP. Public is the misconfiguration §3
	// discovers; ISPOnly is the evasion in Table 5.
	ConsoleVisibility netsim.Visibility
	// Scrub strips brand evidence from every response (Table 5's
	// header-scrubbing evasion). The functional cfauth redirect survives,
	// so the Location-shaped signature still fires.
	Scrub bool
}

// BrandTokens are the strings a scrubbing operator blanks from pages.
var BrandTokens = []string{"Blue Coat", "ProxySG"}

// Install mounts a ProxySG on host — its explicit proxy port, the port 80
// authentication redirect and the management console — and returns the
// appliance's gateway. The caller installs the gateway as the ISP's
// interceptor to put it inline.
func Install(host *netsim.Host, cfg Config) (*common.Gateway, error) {
	if cfg.Name == "" {
		cfg.Name = host.Name()
	}
	host.SetBypassIntercept(true)
	gw := &common.Gateway{
		Host:     host,
		Engine:   cfg.Engine,
		ViaToken: viaToken(cfg.Name),
	}
	if cfg.Scrub {
		gw.Anonymize = true
		gw.BrandTokens = BrandTokens
		gw.ViaToken = ""
	}
	redirect := func(req *httpwire.Request) *httpwire.Response { return cfauthRedirect(cfg.Name, req) }
	wrap := func(h httpwire.Handler) httpwire.Handler {
		if cfg.Scrub {
			return common.ScrubHandler(h, BrandTokens)
		}
		return h
	}

	// Explicit proxy port. A GET with an origin-form target (what a
	// scanner sends) receives the appliance's cfauth authentication
	// redirect; absolute-form targets are proxied.
	proxySrv := &httpwire.Server{
		Handler: wrap(httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
			if req.URL != nil && req.URL.IsAbs() {
				return gw.ExplicitProxyHandler().Handle(req)
			}
			return redirect(req)
		})),
	}
	if !cfg.Scrub {
		proxySrv.ServerHeader = serverBanner
	}
	if _, err := host.Serve(ProxyPort, cfg.ConsoleVisibility, proxySrv); err != nil {
		return nil, err
	}

	// Port 80 front door: the authentication redirect that exposes
	// cfauth.com/cfru= to scanners.
	frontSrv := &httpwire.Server{Handler: wrap(httpwire.HandlerFunc(redirect))}
	if !cfg.Scrub {
		frontSrv.ServerHeader = serverBanner
	}
	if _, err := host.Serve(80, cfg.ConsoleVisibility, frontSrv); err != nil {
		return nil, err
	}

	// Management console.
	mux := &httpwire.Mux{}
	mux.RouteFunc("/", func(req *httpwire.Request) *httpwire.Response {
		body := fmt.Sprintf(`<h1>Blue Coat ProxySG Management Console</h1>
%s
<form action="/login" method="post">
<input name="username"><input name="password" type="password">
<input type="submit" value="Log In"></form>`,
			common.Para("Appliance: %s — ProxySG 6.5 SGOS", cfg.Name))
		return httpwire.NewResponse(200,
			httpwire.NewHeader("Content-Type", "text/html; charset=utf-8", "Server", serverBanner),
			common.HTMLPage("Blue Coat ProxySG - Management Console", body))
	})
	consoleSrv := &httpwire.Server{Handler: wrap(mux)}
	if !cfg.Scrub {
		consoleSrv.ServerHeader = serverBanner
	}
	if _, err := host.Serve(ConsolePort, cfg.ConsoleVisibility, consoleSrv); err != nil {
		return nil, err
	}

	return gw, nil
}

// cfauthRedirect produces appliance name's authentication redirect: a
// 302 to www.cfauth.com carrying the original URL base64-encoded in
// "cfru=".
func cfauthRedirect(name string, req *httpwire.Request) *httpwire.Response {
	cont := base64.URLEncoding.EncodeToString([]byte(req.FullURL()))
	loc := fmt.Sprintf("http://%s/?cfru=%s", CfAuthHost, url.QueryEscape(cont))
	hdr := httpwire.NewHeader(
		"Location", loc,
		"Content-Type", "text/html; charset=utf-8",
		"Server", serverBanner,
		"Via", viaToken(name),
	)
	body := common.HTMLPage("Redirect", `<p>Redirecting to authentication service.</p>`)
	return httpwire.NewResponse(302, hdr, body)
}

// SiteReviewHandler returns the vendor's Site Review submission portal: a
// cloud service through which anyone can propose a category for a URL
// (the mechanism §4 exploits).
//
//	GET  /sitereview        – submission form
//	POST /sitereview        – url=<u>&category=<code>[&email=<e>] -> receipt
//	GET  /sitereview/status?id=<n>
func SiteReviewHandler(db *categorydb.DB) httpwire.Handler {
	mux := &httpwire.Mux{}
	mux.RouteFunc("/sitereview", func(req *httpwire.Request) *httpwire.Response {
		switch req.Method {
		case "GET":
			body := `<h1>Blue Coat Site Review</h1>
<p>Submit a URL for WebFilter categorization review.</p>
<form method="post" action="/sitereview">
<input name="url"><input name="category"><input name="email">
<input type="submit" value="Submit for Review"></form>`
			return httpwire.NewResponse(200, htmlHdr(), common.HTMLPage("Blue Coat Site Review", body))
		case "POST":
			vals, err := url.ParseQuery(string(req.Body))
			if err != nil || vals.Get("url") == "" {
				return httpwire.NewResponse(400, htmlHdr(), common.HTMLPage("Site Review", "<p>missing url</p>"))
			}
			ip := netsim.AddrOf(req.RemoteAddr)
			sub, err := db.Submit(vals.Get("url"), vals.Get("category"), ip, vals.Get("email"))
			if err != nil {
				return httpwire.NewResponse(400, htmlHdr(), common.HTMLPage("Site Review", common.Para("error: %v", err)))
			}
			body := fmt.Sprintf("%s%s",
				common.Para("Thank you. Your submission has been received for review. Reference: %d", sub.ID),
				common.Para("Submitted URL: %s (requested category %q)", sub.URL, sub.RequestedCategory))
			return httpwire.NewResponse(200, htmlHdr(), common.HTMLPage("Site Review - Received", "<h1>Submission received</h1>"+body))
		default:
			return httpwire.NewResponse(405, htmlHdr(), common.HTMLPage("Site Review", "<p>method not allowed</p>"))
		}
	})
	mux.RouteFunc("/sitereview/status", func(req *httpwire.Request) *httpwire.Response {
		id := 0
		fmt.Sscanf(req.URL.Query().Get("id"), "%d", &id) //nolint:errcheck // zero id yields not-found
		sub, ok := db.SubmissionStatus(id)
		if !ok {
			return httpwire.NewResponse(404, htmlHdr(), common.HTMLPage("Site Review", "<p>unknown submission</p>"))
		}
		return httpwire.NewResponse(200, htmlHdr(),
			common.HTMLPage("Site Review - Status", common.Para("Submission %d: %s", sub.ID, sub.State)))
	})
	return mux
}

// CfAuthHandler returns the www.cfauth.com cloud endpoint: it accepts the
// cfru continuation and answers 200 so redirect chains terminate cleanly.
func CfAuthHandler() httpwire.Handler {
	return httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		cfru := ""
		if req.URL != nil {
			cfru = req.URL.Query().Get("cfru")
		}
		orig := "unknown"
		if raw, err := base64.URLEncoding.DecodeString(cfru); err == nil && len(raw) > 0 {
			orig = string(raw)
		}
		body := "<h1>Blue Coat Cloud Authentication</h1>" +
			common.Para("Authentication required before continuing to %s.", orig)
		return httpwire.NewResponse(200, htmlHdr(), common.HTMLPage("Blue Coat Authentication", body))
	})
}

func htmlHdr() *httpwire.Header {
	return httpwire.NewHeader("Content-Type", "text/html; charset=utf-8")
}

// SubmitViaPortal submits a URL to the Site Review portal over HTTP from
// the given client, exercising the full network path a researcher would.
func SubmitViaPortal(ctx context.Context, client *httpwire.Client, portalHost, rawurl, category, email string) (*httpwire.Response, error) {
	form := url.Values{"url": {rawurl}, "category": {category}, "email": {email}}
	req, err := httpwire.NewRequest("POST", "http://"+portalHost+"/sitereview")
	if err != nil {
		return nil, err
	}
	req.Header.Add("Content-Type", "application/x-www-form-urlencoded")
	req.Body = []byte(form.Encode())
	return client.Do(ctx, req)
}
