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
// Classification is staged cheapest-first on the internal/match core: the
// literal markers of every body pattern are fused into one Aho-Corasick
// automaton, so a response body is scanned exactly once no matter how
// large the corpus grows; Location patterns only run on 3xx responses;
// other detectors (match.Regexp for user corpora and DeriveBodyRegexp
// fallbacks) run as their own stages, lazily, in corpus order. The byte
// entry point ClassifyBytes performs zero heap allocations on both the
// hit and miss paths for automaton-backed corpora — see DESIGN.md §12.
//
// DeriveBodyRegexp mechanizes the "manual analysis" step: given sample
// block pages for the same product captured for different URLs, it keeps
// the lines stable across samples and emits a detector that matches
// future instances.
package blockpage

import (
	"bytes"
	"fmt"
	"net/url"
	"regexp"
	"sort"
	"strings"

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
	// Detector is the compiled matcher. Literal and ordered-literal
	// detectors (match.NewLiteral, match.NewOrdered) are fused into the
	// classifier's single-pass automaton; any other Detector (a regexp
	// pattern is match.NewRegexp(re)) runs as its own stage in corpus
	// order. A nil Detector never matches.
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

// ByteMatch is a classification produced by ClassifyBytes. Category
// aliases the caller's body (or is a fresh slice for redirect
// categories); it is only valid while the caller's buffer is — copy it
// to retain it.
type ByteMatch struct {
	Product  string
	Pattern  string
	Category []byte
	Hop      int
	// Hit locates the decisive occurrence: Hit.ID is the index of the
	// winning pattern in the classifier's corpus, Start/End bound the
	// matched span in the body (or Location value).
	Hit match.Hit
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

// pattern evaluation kinds, decided once at compile time.
type patKind uint8

const (
	kindInert        patKind = iota // no detector: never matches
	kindAutoBody                    // body literals fused into the automaton
	kindDetectorBody                // body detector evaluated standalone
	kindLocation                    // location detector, 3xx only
)

// maxStackPatterns bounds the corpus size for which classification scratch
// state fits in fixed stack arrays (the zero-allocation guarantee).
// Larger corpora still work; they pay one transient allocation per call.
const maxStackPatterns = 64

// Classifier recognizes block pages in response chains.
type Classifier struct {
	patterns []Pattern

	// Compiled staged program (rebuilt by compile on every corpus change).
	kinds     []patKind
	auto      *match.Automaton // fused body literals; nil if none
	autoPat   []int32          // automaton pattern ID -> corpus pattern index
	autoStage []int32          // automaton pattern ID -> ordered-stage index
	numStages []int32          // corpus pattern index -> stage count (0 = not fused)
	numAuto   int              // how many corpus patterns are automaton-backed
}

// NewClassifier builds a classifier; nil patterns selects the default
// corpus.
func NewClassifier(patterns []Pattern) *Classifier {
	if patterns == nil {
		patterns = DefaultPatterns()
	}
	c := &Classifier{patterns: patterns}
	c.compile()
	return c
}

// Patterns returns the classifier's corpus.
func (c *Classifier) Patterns() []Pattern {
	out := make([]Pattern, len(c.patterns))
	copy(out, c.patterns)
	return out
}

// Add appends a pattern (e.g. one derived with DeriveBodyRegexp).
func (c *Classifier) Add(p Pattern) {
	c.patterns = append(c.patterns, p)
	c.compile()
}

// fusable reports whether a body detector's literals can join the shared
// automaton, and returns them. Only unanchored, unclipped, case-folded
// literal shapes qualify — anything else keeps its own stage.
func fusable(d match.Detector) ([]string, bool) {
	switch t := d.(type) {
	case *match.Literal:
		if t.CaseFold() && !t.Anchored() && t.MaxScan() == 0 && t.Pattern() != "" {
			return []string{t.Pattern()}, true
		}
	case *match.Ordered:
		if t.CaseFold() && !t.Anchored() && t.MaxScan() == 0 && !t.LineGap() {
			return t.Literals(), true
		}
	}
	return nil, false
}

// compile lowers the corpus into the staged program: one automaton over
// every fusable body literal, plus per-pattern kinds for the corpus-order
// winner loop.
func (c *Classifier) compile() {
	n := len(c.patterns)
	c.kinds = make([]patKind, n)
	c.numStages = make([]int32, n)
	c.autoPat = c.autoPat[:0]
	c.autoStage = c.autoStage[:0]
	c.numAuto = 0
	var lits []string
	for i, p := range c.patterns {
		switch {
		case p.Detector == nil:
			// kindInert
		case p.Where == InLocation:
			c.kinds[i] = kindLocation
		default:
			if seq, ok := fusable(p.Detector); ok {
				c.kinds[i] = kindAutoBody
				c.numStages[i] = int32(len(seq))
				c.numAuto++
				for s, lit := range seq {
					lits = append(lits, lit)
					c.autoPat = append(c.autoPat, int32(i))
					c.autoStage = append(c.autoStage, int32(s))
				}
			} else {
				c.kinds[i] = kindDetectorBody
			}
		}
	}
	c.auto = nil
	if len(lits) > 0 {
		c.auto = match.NewAutomaton(lits)
	}
}

// ClassifyBytes checks one raw response — status code, raw header block,
// body — against the corpus without converting to strings. header may be
// a full RawHead (status line included) or just the header block; it is
// only consulted for the Location value on 3xx statuses. For
// automaton-backed corpora (the default), both hit and miss paths perform
// zero heap allocations; the returned Category aliases body.
func (c *Classifier) ClassifyBytes(status int, header, body []byte, hop int) (ByteMatch, bool) {
	var loc []byte
	if status >= 300 && status < 400 {
		loc = locationFromHeader(header)
	}
	return c.classify(status, body, loc, hop)
}

// ClassifyResponse checks one response against the corpus.
func (c *Classifier) ClassifyResponse(resp *httpwire.Response, hop int) (Match, bool) {
	var loc []byte
	if resp.StatusCode >= 300 && resp.StatusCode < 400 {
		loc = match.Bytes(resp.Header.Get("Location"))
	}
	bm, ok := c.classify(resp.StatusCode, resp.Body, loc, hop)
	if !ok {
		return Match{}, false
	}
	return Match{Product: bm.Product, Pattern: bm.Pattern, Category: string(bm.Category), Hop: bm.Hop}, true
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

// classify runs the staged program: one automaton pass over the body
// records which fused patterns occur, then a corpus-order winner loop
// evaluates the remaining (rare) stages lazily. The winner loop preserves
// the exact first-match-in-corpus-order contract of the original
// per-pattern implementation.
func (c *Classifier) classify(status int, body, loc []byte, hop int) (ByteMatch, bool) {
	n := len(c.patterns)
	// Scratch state lives in fixed stack arrays so steady-state
	// classification allocates nothing; oversized corpora fall back to
	// one transient allocation.
	var progA, markA, firstA, endA [maxStackPatterns]int
	var matchedA [maxStackPatterns]bool
	var prog, mark, first, endv []int
	var matched []bool
	if n <= maxStackPatterns {
		prog, mark, first, endv, matched = progA[:n:n], markA[:n:n], firstA[:n:n], endA[:n:n], matchedA[:n:n]
	} else {
		prog = make([]int, n)
		mark = make([]int, n)
		first = make([]int, n)
		endv = make([]int, n)
		matched = make([]bool, n)
	}

	if c.auto != nil && len(body) > 0 {
		remaining := c.numAuto
		c.auto.Scan(body, func(id, end int) bool {
			t := c.autoPat[id]
			if matched[t] {
				return true
			}
			s := c.autoStage[id]
			if int32(prog[t]) != s {
				return true
			}
			start := end - c.auto.PatternLen(id)
			if start < mark[t] {
				return true // overlaps the previous literal in the sequence
			}
			if s == 0 {
				first[t] = start
			}
			prog[t]++
			mark[t] = end
			if int32(prog[t]) == c.numStages[t] {
				matched[t] = true
				endv[t] = end
				remaining--
			}
			return remaining > 0
		})
	}

	is3xx := status >= 300 && status < 400
	for i := range c.patterns {
		p := &c.patterns[i]
		switch c.kinds[i] {
		case kindAutoBody:
			if matched[i] {
				return ByteMatch{
					Product:  p.Product,
					Pattern:  p.Name,
					Category: categoryFromBytes(body),
					Hop:      hop,
					Hit:      match.Hit{ID: i, Start: first[i], End: endv[i]},
				}, true
			}
		case kindDetectorBody:
			if h, ok := p.Detector.Match(body); ok {
				h.ID = i
				return ByteMatch{Product: p.Product, Pattern: p.Name, Category: categoryFromBytes(body), Hop: hop, Hit: h}, true
			}
		case kindLocation:
			if !is3xx || len(loc) == 0 {
				continue
			}
			if h, ok := p.Detector.Match(loc); ok {
				h.ID = i
				return ByteMatch{Product: p.Product, Pattern: p.Name, Category: categoryFromLocationBytes(loc), Hop: hop, Hit: h}, true
			}
		}
	}
	return ByteMatch{}, false
}

// locationFromHeader extracts the first Location header value from a raw
// header block (a leading status line is tolerated and skipped). The
// returned slice aliases header; nothing is allocated.
func locationFromHeader(header []byte) []byte {
	for len(header) > 0 {
		line := header
		if i := bytes.IndexByte(header, '\n'); i >= 0 {
			line = header[:i]
			header = header[i+1:]
		} else {
			header = nil
		}
		if match.HasFoldPrefix(line, "location:") {
			return bytes.TrimSpace(line[len("location:"):])
		}
	}
	return nil
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

func categoryFromLocationBytes(loc []byte) []byte {
	s := categoryFromLocation(string(loc))
	if s == "" {
		return nil
	}
	return []byte(s)
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

// categoryFromResponse recovers the category line from a parsed response.
func categoryFromResponse(resp *httpwire.Response) string {
	return string(categoryFromBytes(resp.Body))
}

// DeriveBodyRegexp reproduces the paper's manual regex derivation: given
// at least two block-page samples captured for different URLs, it keeps
// the non-trivial lines common to all samples and joins them into a
// single tolerant regexp. Lines that vary between samples (the blocked
// URL, timestamps, session ids) drop out automatically. The returned
// Pattern's Detector is the equivalent ordered-literal detector, so
// derived patterns fuse into the classifier's single-pass automaton like
// the built-in corpus; only when that detector misses a sample does it
// fall back to match.NewRegexp(re).
func DeriveBodyRegexp(product string, samples [][]byte) (Pattern, error) {
	if len(samples) < 2 {
		return Pattern{}, fmt.Errorf("blockpage: need at least 2 samples, got %d", len(samples))
	}
	common := lineSet(samples[0])
	for _, s := range samples[1:] {
		next := lineSet(s)
		for line := range common {
			if !next[line] {
				delete(common, line)
			}
		}
	}
	// Keep surviving lines in the first sample's document order so the
	// joined pattern matches real pages.
	var lines []string
	for _, line := range strings.Split(string(samples[0]), "\n") {
		line = strings.TrimSpace(line)
		if common[line] && len(line) >= 8 && !isMarkupOnly(line) {
			lines = append(lines, line)
			delete(common, line) // dedupe repeats
		}
	}
	if len(lines) == 0 {
		return Pattern{}, fmt.Errorf("blockpage: samples share no distinctive lines")
	}
	// Prefer the two longest stable lines, preserving document order.
	if len(lines) > 2 {
		idx := make([]int, len(lines))
		for i := range idx {
			idx[i] = i
		}
		sort.Slice(idx, func(i, j int) bool { return len(lines[idx[i]]) > len(lines[idx[j]]) })
		keep := idx[:2]
		sort.Ints(keep)
		lines = []string{lines[keep[0]], lines[keep[1]]}
	}
	parts := make([]string, len(lines))
	for i, l := range lines {
		parts[i] = regexp.QuoteMeta(l)
	}
	re, err := regexp.Compile(`(?is)` + strings.Join(parts, ".*"))
	if err != nil {
		return Pattern{}, fmt.Errorf("blockpage: derived regex failed to compile: %w", err)
	}
	// The kept lines are joined in the first sample's order; samples that
	// order them differently would yield a pattern that cannot match its
	// own evidence. Refuse rather than hand back a broken classifier.
	for i, s := range samples {
		if !re.Match(s) {
			return Pattern{}, fmt.Errorf("blockpage: derived regex does not match sample %d", i)
		}
	}
	// The ordered-literal detector is equivalent on ASCII input (the regex
	// body is quoted literals joined by (?s).*, and ASCII folding mirrors
	// (?i) there). Verify it against the evidence; if a sample exercises a
	// divergence (exotic Unicode case pairs), keep the regexp as the
	// detector instead — exactness beats speed.
	pat := Pattern{Product: product, Name: "derived", Where: InBody, Detector: match.NewOrdered(lines)}
	for _, s := range samples {
		if _, ok := pat.Detector.Match(s); !ok {
			pat.Detector = match.NewRegexp(re)
			break
		}
	}
	return pat, nil
}

func lineSet(b []byte) map[string]bool {
	set := make(map[string]bool)
	for _, line := range strings.Split(string(b), "\n") {
		line = strings.TrimSpace(line)
		if line != "" {
			set[line] = true
		}
	}
	return set
}

// isMarkupOnly reports whether a line carries no text outside HTML tags.
func isMarkupOnly(line string) bool {
	depth := 0
	for _, r := range line {
		switch r {
		case '<':
			depth++
		case '>':
			if depth > 0 {
				depth--
			}
		default:
			if depth == 0 && r != ' ' && r != '\t' {
				return false
			}
		}
	}
	return true
}
