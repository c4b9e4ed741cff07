// Package websense implements Websense's web security gateway (Table 1:
// "Web proxy gateways including features to monitor for corporate data
// leakage").
//
// Wire behaviour reproduced for the paper's methodology:
//
//   - blocked requests redirect to the filter host on port 15871 with a
//     "ws-session" parameter and a "/cgi-bin/blockpage.cgi" path — Table
//     2's Shodan keywords and WhatWeb signature,
//   - a Content Gateway console whose banner carries "Websense",
//   - a concurrent-user license model: when demand exceeds the licensed
//     seats, no content is filtered (§4.4: "a Yemeni ISP using Websense
//     with a limited number of concurrent user licenses"),
//   - an update subscription that the vendor can cut off, freezing the
//     deployment's database (§2.2: Websense "discontinu[ed] support of
//     their product for the Yemen government" in 2009).
package websense

import (
	"fmt"
	"hash/fnv"
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
	// EngineName identifies the policy engine.
	EngineName   = "Websense Web Security"
	serverBanner = "Websense Content Gateway"
)

// BlockPagePort is the well-known Websense block-page port; Table 2's
// signature is a Location header redirecting to it.
const BlockPagePort = 15871

// Vendor categories.
const (
	CatAdultContent = "adult-content"
	CatProxyAvoid   = "proxy-avoidance"
	CatGambling     = "gambling"
	CatNews         = "news-and-media"
	CatAdvocacy     = "advocacy-groups"
	CatLGBT         = "gay-or-lesbian-issues"
	CatReligion     = "non-traditional-religions"
	CatMilitancy    = "militancy-and-extremist"
)

// DefaultTaxonomy returns the Websense category set.
func DefaultTaxonomy() []categorydb.Category {
	return []categorydb.Category{
		{Code: CatAdultContent, Name: "Adult Content", Theme: "social"},
		{Code: CatProxyAvoid, Name: "Proxy Avoidance", Theme: "internet-tools"},
		{Code: CatGambling, Name: "Gambling", Theme: "social"},
		{Code: CatNews, Name: "News and Media", Theme: "political"},
		{Code: CatAdvocacy, Name: "Advocacy Groups", Theme: "political"},
		{Code: CatLGBT, Name: "Gay or Lesbian or Bisexual Interest", Theme: "social"},
		{Code: CatReligion, Name: "Non-Traditional Religions", Theme: "social"},
		{Code: CatMilitancy, Name: "Militancy and Extremist", Theme: "conflict-security"},
	}
}

// NewDatabase creates the vendor's master database.
func NewDatabase(clock simclock.Clock) *categorydb.DB {
	db := categorydb.New("Websense", clock)
	for _, c := range DefaultTaxonomy() {
		db.AddCategory(c)
	}
	return db
}

// Engine is the Websense policy engine.
type Engine struct {
	// View is the deployment's synced view of the master database. A
	// FrozenAt view models a vendor update cut-off.
	View *common.SyncView
	// Policy selects which categories this deployment blocks.
	Policy *common.CategoryPolicy
	// BlockHost is the filter machine's hostname or IP; block redirects
	// point at BlockHost:15871.
	BlockHost string
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
		return common.Decision{Block: true, Category: label, Response: e.BlockRedirect(req, label)}
	}
	cat, ok := e.View.Lookup(host, at)
	if !ok || !e.Policy.Enabled(cat) {
		return common.Pass
	}
	return common.Decision{Block: true, Category: cat, Response: e.BlockRedirect(req, cat)}
}

// BlockRedirect renders the block response: a redirect to blockpage.cgi on
// port 15871 with a deterministic ws-session token.
func (e *Engine) BlockRedirect(req *httpwire.Request, category string) *httpwire.Response {
	session := wsSession(req.FullURL())
	loc := fmt.Sprintf("http://%s:%d/cgi-bin/blockpage.cgi?ws-session=%d&cat=%s&url=%s",
		e.BlockHost, BlockPagePort, session, url.QueryEscape(category), url.QueryEscape(req.FullURL()))
	hdr := httpwire.NewHeader(
		"Location", loc,
		"Content-Type", "text/html; charset=utf-8",
		"Cache-Control", "no-cache",
		"Server", serverBanner,
	)
	return httpwire.NewResponse(302, hdr, common.HTMLPage("Redirect", `<p>Redirecting to block page.</p>`))
}

// wsSession derives a stable pseudo-session id from the URL so replays are
// deterministic.
func wsSession(u string) uint32 {
	h := fnv.New32a()
	h.Write([]byte(u)) //nolint:errcheck // hash writes cannot fail
	return h.Sum32()%900000000 + 100000000
}

// Config controls deployment installation.
type Config struct {
	// Name is the gateway hostname.
	Name string
	// Engine is the policy engine (required).
	Engine *Engine
	// License limits concurrent filtered users; exceeding it fails open.
	License *common.LicenseModel
	// ConsoleVisibility controls external reachability of the block-page
	// service and console.
	ConsoleVisibility netsim.Visibility
	// Scrub blanks brand strings from pages (Table 5's header-scrubbing
	// evasion). The block redirect still targets port 15871 with a
	// ws-session parameter — changing that breaks deployed agents — so
	// the redirect-shaped signature survives.
	Scrub bool
}

// BrandTokens are the strings a scrubbing operator blanks from pages.
var BrandTokens = []string{"Websense"}

// Install mounts a Websense gateway on host — the block-page service on
// port 15871 and the console on port 80 — and returns its gateway. The
// caller installs the gateway as the ISP's interceptor to put it inline.
func Install(host *netsim.Host, cfg Config) (*common.Gateway, error) {
	if cfg.Name == "" {
		cfg.Name = host.Name()
	}
	if cfg.Engine.BlockHost == "" {
		if host.Name() != "" {
			cfg.Engine.BlockHost = host.Name()
		} else {
			cfg.Engine.BlockHost = host.Addr().String()
		}
	}
	host.SetBypassIntercept(true)
	gw := &common.Gateway{
		Host:     host,
		Engine:   cfg.Engine,
		ViaToken: fmt.Sprintf("1.1 %s (Websense Content Gateway)", cfg.Name),
		License:  cfg.License,
	}
	if cfg.Scrub {
		gw.Anonymize = true
		gw.BrandTokens = BrandTokens
		gw.ViaToken = ""
	}

	db := cfg.Engine.View.DB

	// Block-page service on 15871.
	mux := httpwire.NewMux()
	mux.RouteFunc("/cgi-bin/blockpage.cgi", func(req *httpwire.Request) *httpwire.Response {
		q := req.URL.Query()
		catCode := q.Get("cat")
		display := catCode
		if c, ok := db.Category(catCode); ok {
			display = c.Name
		}
		session := q.Get("ws-session")
		if session == "" {
			session = "0"
		}
		body := fmt.Sprintf(`<h1>Content blocked by your organization's policy</h1>
%s
%s
%s
<p><i>Websense Enterprise</i></p>`,
			common.Para("Access to this website has been blocked."),
			common.Para("URL: %s", q.Get("url")),
			common.Para("Category: %s — session %s", display, session))
		return httpwire.NewResponse(200,
			httpwire.NewHeader("Content-Type", "text/html; charset=utf-8", "Server", serverBanner),
			common.HTMLPage("Websense - Content Blocked", body))
	})
	mux.RouteFunc("/", func(req *httpwire.Request) *httpwire.Response {
		body := fmt.Sprintf(`<h1>Websense Content Gateway</h1>
%s`,
			common.Para("Gateway %s — Websense Web Security management.", cfg.Name))
		return httpwire.NewResponse(200,
			httpwire.NewHeader("Content-Type", "text/html; charset=utf-8", "Server", serverBanner),
			common.HTMLPage("Websense Content Gateway", body))
	})
	srv := &httpwire.Server{Handler: mux, ServerHeader: serverBanner}
	if cfg.Scrub {
		srv = &httpwire.Server{Handler: common.ScrubHandler(mux, BrandTokens)}
	}
	if _, err := host.Serve(BlockPagePort, cfg.ConsoleVisibility, srv); err != nil {
		return nil, err
	}

	// Port 80 serves the same console face.
	if _, err := host.Serve(80, cfg.ConsoleVisibility, srv); err != nil {
		return nil, err
	}

	return gw, nil
}
