// Package netsweeper implements Netsweeper Inc.'s content filtering
// platform (Table 1: "Netsweeper Content Filtering").
//
// Wire behaviour reproduced for the paper's methodology:
//
//   - blocked requests are answered with a redirect to the deployment's
//     deny page under ":8080/webadmin/deny/" — the path fragments are
//     Table 2's Shodan keywords ("netsweeper", "webadmin",
//     "webadmin/deny", "8080/webadmin/"),
//   - a WebAdmin operator console on port 8080,
//   - the "test-a-site" vendor service through which §4.4 submits domains
//     for classification,
//   - the automatic categorization queue: URLs accessed through a
//     deployment that are not yet categorized are queued for
//     classification (§4.4: "we have observed Netsweeper queuing Web
//     sites for categorization once they have been accessed within the
//     country"), which is why the paper cannot pre-test domains before
//     submission,
//   - the deny-page test tool: 66 category-specific URLs under
//     denypagetests.netsweeper.com/category/catno/<N> that reveal which
//     categories a deployment blocks.
package netsweeper

import (
	"context"
	"fmt"
	"net/url"
	"strconv"
	"strings"
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
	Name = "Netsweeper"
	// EngineName identifies the policy engine.
	EngineName   = "Netsweeper"
	serverBanner = "Apache (Netsweeper WebAdmin)"
)

// WebAdminPort is the console/deny-page port; its path layout is the
// paper's identification signature.
const WebAdminPort = 8080

// DenyPageTestsHost is the vendor's deny-page test domain (§4.4).
const DenyPageTestsHost = "denypagetests.netsweeper.com"

// Category numbers referenced by the paper. CatNoPornography is 23
// (§4.4: "denypagetests.netsweeper.com/category/catno/23 for
// pornography"); the remaining numbers are part of the reconstruction.
const (
	CatNoAdultImage      = 1
	CatNoPhishing        = 18
	CatNoPornography     = 23
	CatNoProxyAnonymizer = 24
	CatNoSearchKeywords  = 27
)

// Vendor category codes used in policies.
const (
	CatAdultImage      = "adult-image"
	CatPhishing        = "phishing"
	CatPornography     = "pornography"
	CatProxyAnonymizer = "proxy-anonymizer"
	CatSearchKeywords  = "search-keywords"
	CatLGBT            = "lgbt-lifestyles"
	CatPolitics        = "politics"
	CatReligionAlt     = "alternative-spirituality"
	CatNews            = "news"
	CatHumanRights     = "human-rights"
	CatMinority        = "minority-rights"
)

// DefaultTaxonomy returns Netsweeper's 66 numbered categories. Number 23
// is pornography per the paper; the full list is reconstructed from
// Netsweeper's published category set of the period.
func DefaultTaxonomy() []categorydb.Category {
	named := map[int]categorydb.Category{
		CatNoAdultImage:      {Code: CatAdultImage, Name: "Adult Image", Theme: "social"},
		2:                    {Code: "alcohol", Name: "Alcohol", Theme: "social"},
		3:                    {Code: CatReligionAlt, Name: "Alternative Spirituality", Theme: "social"},
		4:                    {Code: "art", Name: "Art", Theme: "social"},
		5:                    {Code: "chat", Name: "Chat", Theme: "internet-tools"},
		6:                    {Code: "criminal-skills", Name: "Criminal Skills", Theme: "conflict-security"},
		7:                    {Code: "drugs", Name: "Drugs", Theme: "social"},
		8:                    {Code: "education", Name: "Education", Theme: "social"},
		9:                    {Code: "entertainment", Name: "Entertainment", Theme: "social"},
		10:                   {Code: "extreme", Name: "Extreme", Theme: "social"},
		11:                   {Code: "file-sharing", Name: "File Sharing", Theme: "internet-tools"},
		12:                   {Code: "gambling", Name: "Gambling", Theme: "social"},
		13:                   {Code: "games", Name: "Games", Theme: "social"},
		14:                   {Code: "hate-speech", Name: "Hate Speech", Theme: "conflict-security"},
		15:                   {Code: CatHumanRights, Name: "Human Rights", Theme: "political"},
		16:                   {Code: "intimate-apparel", Name: "Intimate Apparel", Theme: "social"},
		17:                   {Code: "journals-blogs", Name: "Journals and Blogs", Theme: "political"},
		CatNoPhishing:        {Code: CatPhishing, Name: "Phishing", Theme: "internet-tools"},
		19:                   {Code: CatLGBT, Name: "LGBT Lifestyles", Theme: "social"},
		20:                   {Code: "matrimonial", Name: "Matrimonial", Theme: "social"},
		21:                   {Code: CatMinority, Name: "Minority Rights", Theme: "political"},
		22:                   {Code: CatNews, Name: "News", Theme: "political"},
		CatNoPornography:     {Code: CatPornography, Name: "Pornography", Theme: "social"},
		CatNoProxyAnonymizer: {Code: CatProxyAnonymizer, Name: "Proxy Anonymizer", Theme: "internet-tools"},
		25:                   {Code: CatPolitics, Name: "Politics", Theme: "political"},
		26:                   {Code: "religion", Name: "Religion", Theme: "social"},
		CatNoSearchKeywords:  {Code: CatSearchKeywords, Name: "Search Keywords", Theme: "internet-tools"},
		28:                   {Code: "social-networking", Name: "Social Networking", Theme: "internet-tools"},
		29:                   {Code: "sports", Name: "Sports", Theme: "social"},
		30:                   {Code: "streaming-media", Name: "Streaming Media", Theme: "internet-tools"},
		31:                   {Code: "tobacco", Name: "Tobacco", Theme: "social"},
		32:                   {Code: "travel", Name: "Travel", Theme: "social"},
		33:                   {Code: "violence", Name: "Violence", Theme: "conflict-security"},
		34:                   {Code: "weapons", Name: "Weapons", Theme: "conflict-security"},
		35:                   {Code: "web-email", Name: "Web Email", Theme: "internet-tools"},
	}
	out := make([]categorydb.Category, 0, 66)
	for n := 1; n <= 66; n++ {
		if c, ok := named[n]; ok {
			c.Number = n
			out = append(out, c)
			continue
		}
		out = append(out, categorydb.Category{
			Code:   fmt.Sprintf("category-%d", n),
			Name:   fmt.Sprintf("Category %d", n),
			Number: n,
		})
	}
	return out
}

// NewDatabase creates the vendor's master categorization database.
func NewDatabase(clock simclock.Clock) *categorydb.DB {
	db := categorydb.New("Netsweeper", clock)
	for _, c := range DefaultTaxonomy() {
		db.AddCategory(c)
	}
	return db
}

// Engine is the Netsweeper policy engine.
type Engine struct {
	// View is the deployment's synced view of the master database.
	View *common.SyncView
	// Policy selects which categories this deployment blocks.
	Policy *common.CategoryPolicy
	// DenyHost is the host:port serving this deployment's deny pages,
	// e.g. "ns1.yemen.net.ye:8080".
	DenyHost string
	// DisableDenyPageTests opts the deployment out of the vendor's
	// deny-page test tool (§4.4: "only viable in networks where the tool
	// has not been disabled").
	DisableDenyPageTests bool
}

// ProductName implements common.PolicyEngine.
func (e *Engine) ProductName() string { return EngineName }

// Decide implements common.PolicyEngine.
func (e *Engine) Decide(req *httpwire.Request, at time.Time) common.Decision {
	host := req.Hostname()
	if host == "" {
		return common.Pass
	}

	// The deny-page test tool: requests to the vendor's test host carry
	// the category number in the path; the deployment blocks them exactly
	// when it blocks that category.
	if strings.EqualFold(host, DenyPageTestsHost) && !e.DisableDenyPageTests {
		if n, ok := catNoFromPath(req.Path()); ok {
			if cat, ok := e.View.DB.CategoryByNumber(n); ok && e.Policy.Enabled(cat.Code) {
				return common.Decision{Block: true, Category: cat.Code, Response: e.DenyRedirect(req, cat.Code)}
			}
			return common.Pass
		}
	}

	if label, ok := e.Policy.CustomCategory(host); ok {
		return common.Decision{Block: true, Category: label, Response: e.DenyRedirect(req, label)}
	}
	cat, ok := e.View.Lookup(host, at)
	if !ok || !e.Policy.Enabled(cat) {
		return common.Pass
	}
	return common.Decision{Block: true, Category: cat, Response: e.DenyRedirect(req, cat)}
}

func catNoFromPath(path string) (int, bool) {
	const prefix = "/category/catno/"
	if !strings.HasPrefix(path, prefix) {
		return 0, false
	}
	n, err := strconv.Atoi(strings.Trim(strings.TrimPrefix(path, prefix), "/"))
	if err != nil || n < 1 {
		return 0, false
	}
	return n, true
}

// DenyRedirect renders the block response: a 302 to the deployment's deny
// page carrying the category number and original URL.
func (e *Engine) DenyRedirect(req *httpwire.Request, category string) *httpwire.Response {
	catno := 0
	if c, ok := e.View.DB.Category(category); ok {
		catno = c.Number
	}
	loc := fmt.Sprintf("http://%s/webadmin/deny/index.php?dpid=2&dpruleid=1&cat=%d&dplanguage=-&url=%s",
		e.DenyHost, catno, url.QueryEscape(req.FullURL()))
	hdr := httpwire.NewHeader(
		"Location", loc,
		"Content-Type", "text/html; charset=utf-8",
		"Cache-Control", "no-cache",
	)
	body := common.HTMLPage("Redirect", `<p>Redirecting.</p>`)
	return httpwire.NewResponse(302, hdr, body)
}

// Config controls deployment installation.
type Config struct {
	// Name is the filter hostname.
	Name string
	// Engine is the policy engine (required).
	Engine *Engine
	// License optionally limits concurrent filtered users; YemenNet's
	// inconsistent blocking (§4.4 challenge 2) comes from this.
	License *common.LicenseModel
	// WebAdminVisibility controls whether the WebAdmin console is
	// reachable from outside the ISP. The paper's discoveries are Public.
	WebAdminVisibility netsim.Visibility
	// AutoQueue enables the access-triggered categorization queue.
	AutoQueue bool
	// Scrub blanks brand strings from pages (Table 5's header-scrubbing
	// evasion). The deny-page redirect still points at /webadmin/deny —
	// relocating it would break the deployment — so the path-shaped
	// signature survives the tactic.
	Scrub bool
}

// BrandTokens are the strings a scrubbing operator blanks from pages.
var BrandTokens = []string{"Netsweeper"}

// Install mounts a Netsweeper deployment on host — the WebAdmin console
// and deny pages — and returns its gateway. The caller installs the
// gateway as the ISP's interceptor to put it inline.
func Install(host *netsim.Host, cfg Config) (*common.Gateway, error) {
	if cfg.Name == "" {
		cfg.Name = host.Name()
	}
	if cfg.Engine.DenyHost == "" {
		cfg.Engine.DenyHost = fmt.Sprintf("%s:%d", hostLabel(host), WebAdminPort)
	}
	host.SetBypassIntercept(true)
	db := cfg.Engine.View.DB
	gw := &common.Gateway{
		Host:    host,
		Engine:  cfg.Engine,
		License: cfg.License,
	}
	if cfg.Scrub {
		gw.Anonymize = true
		gw.BrandTokens = BrandTokens
	}
	if cfg.AutoQueue {
		gw.OnForward = func(req *httpwire.Request) {
			db.QueueAuto(req.Hostname(), req.FullURL())
		}
	}

	// WebAdmin console and deny pages on 8080.
	mux := httpwire.NewMux()
	mux.RouteFunc("/webadmin/deny/index.php", func(req *httpwire.Request) *httpwire.Response {
		q := req.URL.Query()
		catno, _ := strconv.Atoi(q.Get("cat"))
		display := "Restricted Content"
		if c, ok := db.CategoryByNumber(catno); ok {
			display = c.Name
		}
		body := fmt.Sprintf(`<div id="deny">
<h1>This page has been denied</h1>
%s
%s
%s
<p><i>Powered by Netsweeper</i></p>
</div>`,
			common.Para("Access to the requested web site has been denied by your network administrator."),
			common.Para("URL: %s", q.Get("url")),
			common.Para("Category: %s (%d)", display, catno))
		return httpwire.NewResponse(200,
			httpwire.NewHeader("Content-Type", "text/html; charset=utf-8", "Server", serverBanner),
			common.HTMLPage("Netsweeper WebAdmin - Denied", body))
	})
	mux.RouteFunc("/webadmin/", func(req *httpwire.Request) *httpwire.Response {
		body := fmt.Sprintf(`<h1>Netsweeper WebAdmin</h1>
%s
<form action="/webadmin/login" method="post">
<input name="username"><input name="password" type="password">
<input type="submit" value="Login"></form>`,
			common.Para("Policy server %s — Netsweeper Enterprise Filtering.", cfg.Name))
		return httpwire.NewResponse(200,
			httpwire.NewHeader("Content-Type", "text/html; charset=utf-8", "Server", serverBanner),
			common.HTMLPage("Netsweeper WebAdmin Login", body))
	})
	mux.RouteFunc("/", func(req *httpwire.Request) *httpwire.Response {
		hdr := httpwire.NewHeader("Location", "/webadmin/", "Content-Type", "text/html; charset=utf-8", "Server", serverBanner)
		return httpwire.NewResponse(302, hdr, common.HTMLPage("Redirect", `<p>See /webadmin/.</p>`))
	})
	srv := &httpwire.Server{Handler: mux, ServerHeader: serverBanner}
	if cfg.Scrub {
		srv = &httpwire.Server{Handler: common.ScrubHandler(mux, BrandTokens)}
	}
	if _, err := host.Serve(WebAdminPort, cfg.WebAdminVisibility, srv); err != nil {
		return nil, err
	}

	return gw, nil
}

func hostLabel(h *netsim.Host) string {
	if h.Name() != "" {
		return h.Name()
	}
	return h.Addr().String()
}

// TestASiteHandler returns the vendor's "test-a-site" service (§4.4): it
// reports a URL's current categorization and accepts it for
// classification — the submission channel the paper uses.
//
//	GET  /support/test-a-site                – form
//	POST /support/test-a-site                – url=<u>[&category=<code>][&email=<e>]
func TestASiteHandler(db *categorydb.DB) httpwire.Handler {
	mux := httpwire.NewMux()
	mux.RouteFunc("/support/test-a-site", func(req *httpwire.Request) *httpwire.Response {
		if req.Method != "POST" {
			body := `<h1>Netsweeper Test-a-Site</h1>
<p>Check how a site is categorized, or submit it for review.</p>
<form method="post" action="/support/test-a-site">
<input name="url"><input name="category"><input name="email">
<input type="submit" value="Test Site"></form>`
			return httpwire.NewResponse(200, htmlHdr(), common.HTMLPage("Netsweeper Test-a-Site", body))
		}
		vals, err := url.ParseQuery(string(req.Body))
		if err != nil || vals.Get("url") == "" {
			return httpwire.NewResponse(400, htmlHdr(), common.HTMLPage("Test-a-Site", "<p>missing url</p>"))
		}
		raw := vals.Get("url")
		domain := categorydb.DomainOfURL(raw)
		if cat, ok := db.Lookup(domain); ok {
			display := cat
			if c, k := db.Category(cat); k {
				display = c.Name
			}
			return httpwire.NewResponse(200, htmlHdr(),
				common.HTMLPage("Test-a-Site - Result", common.Para("%s is currently categorized as %q.", raw, display)))
		}
		ip := netsim.AddrOf(req.RemoteAddr)
		sub, err := db.Submit(raw, vals.Get("category"), ip, vals.Get("email"))
		if err != nil {
			return httpwire.NewResponse(400, htmlHdr(), common.HTMLPage("Test-a-Site", common.Para("error: %v", err)))
		}
		body := common.Para("%s is not yet categorized; it has been queued for classification (reference %d).", raw, sub.ID)
		return httpwire.NewResponse(200, htmlHdr(), common.HTMLPage("Test-a-Site - Queued", body))
	})
	return mux
}

// DenyPageTestsHandler returns the origin content of
// denypagetests.netsweeper.com: one page per category number. Deployments
// that block category N never let the request reach this origin; vantage
// points seeing this page for catno N know N is not blocked.
func DenyPageTestsHandler(db *categorydb.DB) httpwire.Handler {
	return httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		n, ok := catNoFromPath(req.Path())
		if !ok {
			body := "<h1>Netsweeper Deny Page Tests</h1>" +
				common.Para("Request /category/catno/N to test whether your network blocks category N (1-66).")
			return httpwire.NewResponse(200, htmlHdr(), common.HTMLPage("Netsweeper Deny Page Tests", body))
		}
		display := fmt.Sprintf("Category %d", n)
		if c, ok := db.CategoryByNumber(n); ok {
			display = c.Name
		}
		body := fmt.Sprintf("<h1>Deny page test</h1>%s",
			common.Para("You can see this page, so category %d (%s) is NOT blocked on your network.", n, display))
		return httpwire.NewResponse(200, htmlHdr(), common.HTMLPage(fmt.Sprintf("Deny Page Test %d", n), body))
	})
}

func htmlHdr() *httpwire.Header {
	return httpwire.NewHeader("Content-Type", "text/html; charset=utf-8")
}

// SubmitViaTestASite submits a URL to the test-a-site service over HTTP
// (§4.4: "submitted six of them to Netsweeper's test-a-site service").
func SubmitViaTestASite(ctx context.Context, client *httpwire.Client, portalHost, rawurl, category, email string) (*httpwire.Response, error) {
	form := url.Values{"url": {rawurl}, "category": {category}, "email": {email}}
	req, err := httpwire.NewRequest("POST", "http://"+portalHost+"/support/test-a-site")
	if err != nil {
		return nil, err
	}
	req.Header.Add("Content-Type", "application/x-www-form-urlencoded")
	req.Body = []byte(form.Encode())
	return client.Do(ctx, req)
}
