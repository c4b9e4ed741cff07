package fingerprint

import (
	"net/url"
	"strings"
	"sync"

	"filtermap/internal/match"
)

// Product names used across the pipeline. They match the vendor packages'
// Name constants; fingerprint keeps its own copies so the signature layer
// has no dependency on the implementations it detects.
const (
	ProductBlueCoat    = "Blue Coat"
	ProductSmartFilter = "McAfee SmartFilter"
	ProductNetsweeper  = "Netsweeper"
	ProductWebsense    = "Websense"
)

// Table2Signatures returns the paper's Table 2 validation signatures,
// built once and shared by every caller, which must not modify them:
//
//	Blue Coat:  Location header contains hostname "www.cfauth.com" (or a
//	            cfru= continuation), or a ProxySG Via/Server banner.
//	SmartFilter: Via-Proxy header, or HTML title contains "McAfee Web
//	            Gateway".
//	Netsweeper: WebAdmin console / deny-page markers.
//	Websense:   Location header redirects to a host on port 15871 with
//	            parameter "ws-session".
func Table2Signatures() []*Signature { return table2() }

var table2 = sync.OnceValue(func() []*Signature {
	return []*Signature{
		{
			Product: ProductBlueCoat,
			Name:    "cfauth-redirect",
			Matchers: []Matcher{
				LocationMatches{
					Desc: `contains hostname "www.cfauth.com"`,
					Fn: func(loc string) bool {
						u, err := url.Parse(loc)
						return err == nil && strings.EqualFold(u.Hostname(), "www.cfauth.com")
					},
				},
			},
		},
		{
			Product: ProductBlueCoat,
			Name:    "cfru-parameter",
			Matchers: []Matcher{
				LocationMatches{
					Desc: `carries a "cfru=" continuation parameter`,
					Fn: func(loc string) bool {
						u, err := url.Parse(loc)
						return err == nil && u.Query().Get("cfru") != ""
					},
				},
			},
		},
		{
			Product: ProductBlueCoat,
			Name:    "proxysg-banner",
			Matchers: []Matcher{
				HeaderContains{Name: "Server", Substr: "Blue Coat ProxySG"},
			},
		},
		{
			Product: ProductSmartFilter,
			Name:    "via-proxy-header",
			Matchers: []Matcher{
				HeaderPresent{ExactName: "Via-Proxy"},
			},
		},
		{
			Product: ProductSmartFilter,
			Name:    "mwg-title",
			Matchers: []Matcher{
				TitleContains{Substr: "McAfee Web Gateway"},
			},
		},
		{
			Product: ProductNetsweeper,
			Name:    "webadmin-console",
			Matchers: []Matcher{
				TitleContains{Substr: "Netsweeper WebAdmin"},
			},
		},
		{
			Product: ProductNetsweeper,
			Name:    "deny-page",
			Matchers: []Matcher{
				BodyContains{Substr: "Powered by Netsweeper"},
			},
		},
		{
			Product: ProductNetsweeper,
			Name:    "webadmin-redirect",
			Matchers: []Matcher{
				LocationMatches{
					Desc: `points at a "/webadmin/" path`,
					Fn: func(loc string) bool {
						return match.ContainsFold(match.Bytes(loc), "/webadmin/")
					},
				},
			},
		},
		{
			Product: ProductWebsense,
			Name:    "blockpage-redirect",
			Matchers: []Matcher{
				LocationMatches{
					Desc: `redirects to a host on port 15871 with parameter "ws-session"`,
					Fn: func(loc string) bool {
						u, err := url.Parse(loc)
						if err != nil {
							return false
						}
						return u.Port() == "15871" && u.Query().Get("ws-session") != ""
					},
				},
			},
		},
		{
			Product: ProductWebsense,
			Name:    "content-gateway-banner",
			Matchers: []Matcher{
				HeaderContains{Name: "Server", Substr: "Websense"},
			},
		},
	}
})

// Table2SignatureDescriptions groups the Table 2 signatures' conditions
// by product, in signature-table order — the Table 2 signature column's
// content.
func Table2SignatureDescriptions() map[string][]string {
	out := make(map[string][]string)
	for _, sig := range Table2Signatures() {
		parts := make([]string, len(sig.Matchers))
		for i, m := range sig.Matchers {
			parts[i] = m.Describe()
		}
		out[sig.Product] = append(out[sig.Product], strings.Join(parts, " AND "))
	}
	return out
}

// ShodanKeywords reproduces Table 2's search keywords, keyed by product.
// The identification pipeline fans these out across ccTLD-qualified
// queries exactly as §3.1 describes.
func ShodanKeywords() map[string][]string {
	return map[string][]string{
		ProductBlueCoat:    {"proxysg", "cfru="},
		ProductSmartFilter: {`"mcafee web gateway"`, `"url blocked"`},
		ProductNetsweeper:  {"netsweeper", "webadmin", "webadmin/deny", "8080/webadmin/"},
		ProductWebsense:    {"blockpage.cgi", `"websense"`},
	}
}
