// Package blockpage implements §5's block-page recognition: "Manual
// analysis identified regular expressions corresponding to the vendors'
// block pages and automated analysis identified all URLs which matched a
// given block page regular expression."
//
// The corpus covers the four products' block responses — both bodies
// (Blue Coat exception pages, McAfee notifications) and redirect
// Locations (Netsweeper deny pages, Websense blockpage.cgi). A Classifier
// runs the corpus over a full redirect chain, because two of the four
// vendors reveal themselves only in an intermediate 302.
//
// Classification is a corpus-order loop over the internal/match
// detectors: each pattern's own detector runs on the body, or for a
// Location pattern on a 3xx response's Location header, and the first
// pattern that matches wins. The corpus is a handful of patterns and a
// block page is a few hundred bytes, so the loop is the whole algorithm —
// see DESIGN.md §12.
package blockpage

import (
	"bytes"
	"fmt"
	"net/url"
	"slices"

	"filtermap/internal/httpwire"
	"filtermap/internal/match"
)

// Where selects which part of a response a pattern examines.
type Where int

const (
	// InBody matches against the response body.
	InBody Where = iota
	// InLocation matches against a 3xx Location header.
	InLocation
)

// String implements fmt.Stringer.
func (w Where) String() string {
	switch w {
	case InBody:
		return "body"
	case InLocation:
		return "location"
	default:
		return fmt.Sprintf("Where(%d)", int(w))
	}
}

// Pattern is one block-page recognizer.
type Pattern struct {
	Product string
	Name    string
	Where   Where
	// Detector is the compiled matcher, match.NewLiteral or
	// match.NewOrdered. A nil Detector never matches.
	Detector match.Detector
}

// Match is a successful classification.
type Match struct {
	Product string
	Pattern string
	// Category is the blocking category when it can be recovered from the
	// block page or redirect ("" otherwise).
	Category string
	// Hop is the index in the redirect chain where the block page was
	// recognized.
	Hop int
}

// DefaultPatterns returns the vendor block-page corpus. Each Detector is
// the literal form of the regexp §5's manual analysis produced; the
// differential tests replay those regexps as the frozen reference.
func DefaultPatterns() []Pattern {
	return []Pattern{
		{
			Product:  "Blue Coat",
			Name:     "exception-page",
			Where:    InBody,
			Detector: match.NewLiteral("your request was denied because of its content categorization"),
		},
		{
			Product:  "McAfee SmartFilter",
			Name:     "mwg-notification",
			Where:    InBody,
			Detector: match.NewOrdered([]string{"<title>McAfee Web Gateway - Notification</title>", "URL Blocked"}),
		},
		{
			Product:  "Netsweeper",
			Name:     "deny-redirect",
			Where:    InLocation,
			Detector: match.NewLiteral("/webadmin/deny/"),
		},
		{
			Product: "Netsweeper",
			Name:    "deny-page",
			Where:   InBody,
			// The seed regexp "this page has been denied.*powered by
			// netsweeper|powered by netsweeper" matches exactly when its
			// second alternative does, so the detector is that literal.
			Detector: match.NewLiteral("powered by netsweeper"),
		},
		{
			Product: "Websense",
			Name:    "blockpage-redirect",
			Where:   InLocation,
			// The seed regexp's .* gap is (?i) without (?s): it must not
			// cross a newline.
			Detector: match.NewOrdered([]string{":15871/cgi-bin/blockpage.cgi?", "ws-session="}, match.WithLineGap(true)),
		},
		{
			Product:  "Websense",
			Name:     "blockpage-body",
			Where:    InBody,
			Detector: match.NewLiteral("content blocked by your organization's policy"),
		},
	}
}

// Classifier recognizes block pages in response chains.
type Classifier struct {
	patterns []Pattern
}

// NewClassifier builds a classifier over its own copy of patterns; nil
// selects the default corpus.
func NewClassifier(patterns []Pattern) *Classifier {
	if patterns == nil {
		patterns = DefaultPatterns()
	}
	return &Classifier{patterns: slices.Clone(patterns)}
}

// ClassifyResponse checks one response against the corpus in order and
// returns the first match: a body pattern tests the body, a location
// pattern the Location header of a 3xx response.
func (c *Classifier) ClassifyResponse(resp *httpwire.Response, hop int) (Match, bool) {
	var loc string
	if resp.StatusCode >= 300 && resp.StatusCode < 400 {
		loc = resp.Header.Get("Location")
	}
	for _, p := range c.patterns {
		if p.Detector == nil {
			continue
		}
		switch p.Where {
		case InBody:
			if p.Detector.Match(resp.Body) {
				return Match{Product: p.Product, Pattern: p.Name, Category: string(categoryFromBytes(resp.Body)), Hop: hop}, true
			}
		case InLocation:
			if loc != "" && p.Detector.Match(match.Bytes(loc)) {
				return Match{Product: p.Product, Pattern: p.Name, Category: categoryFromLocation(loc), Hop: hop}, true
			}
		}
	}
	return Match{}, false
}

// ClassifyChain checks a redirect chain in order and returns the first
// block-page match.
func (c *Classifier) ClassifyChain(chain []*httpwire.Response) (Match, bool) {
	for i, resp := range chain {
		if m, ok := c.ClassifyResponse(resp, i); ok {
			return m, true
		}
	}
	return Match{}, false
}

// categoryFromLocation recovers the category parameter from deny/block
// redirect URLs ("cat" for both Netsweeper and Websense).
func categoryFromLocation(loc string) string {
	u, err := url.Parse(loc)
	if err != nil {
		return ""
	}
	return u.Query().Get("cat")
}

// emDash is the UTF-8 encoding of U+2014, one of the two annotation
// delimiters categoryFromBytes strips.
var emDash = []byte("—")

// categoryFromBytes recovers the "Category: ..." line that the block
// pages in this corpus carry. It is the byte-wise equivalent of matching
// (?i)<p>category:\s*([^<]+)</p> and post-processing the capture (the
// differential tests replay that regexp): find each case-insensitive
// "<p>category:", take the span up to the next '<' (which must open
// "</p>" and must be non-empty for the regexp's [^<]+ to have matched),
// trim it, and strip trailing "(...)" / "— ..." annotations. The result
// aliases body; nothing is allocated.
func categoryFromBytes(body []byte) []byte {
	const open = "<p>category:"
	rest := body
	for {
		i := match.IndexFold(rest, open)
		if i < 0 {
			return nil
		}
		region := rest[i+len(open):]
		j := bytes.IndexByte(region, '<')
		if j < 0 {
			// No tag follows anywhere, so no later occurrence can close
			// either (the opener itself contains '<').
			return nil
		}
		if j > 0 && match.HasFoldPrefix(region[j:], "</p>") {
			cat := bytes.TrimSpace(region[:j])
			if k := annotationIndex(cat); k > 0 {
				cat = bytes.TrimSpace(cat[:k])
			}
			return cat
		}
		rest = rest[i+1:]
	}
}

// annotationIndex returns the first index of '(' or an em dash in cat,
// or -1 — the byte-wise form of strings.IndexAny(cat, "(—").
func annotationIndex(cat []byte) int {
	k := bytes.IndexByte(cat, '(')
	if d := bytes.Index(cat, emDash); d >= 0 && (k < 0 || d < k) {
		k = d
	}
	return k
}
