// Package match is the allocation-free byte-matching core shared by the
// block-page classifier and the fingerprint signatures.
//
// Both ask the same question of a response: does this body, title or
// Location carry one of a few vendor markers? This package answers it
// without lowering a copy of the text. Literal finds one substring and
// Ordered finds substrings left to right.
//
// Literal matching is ASCII-case-insensitive: vendor block-page markers,
// banner keywords and HTML tags are ASCII, and scanned bytes are hostile
// input, not UTF-8 documents — Unicode-aware folding would re-encode
// invalid bytes and shift offsets. Literal and ordered matching and the
// span extractors allocate nothing, and every extracted span aliases the
// input.
//
// Ownership rule: detectors never retain or mutate the text they are
// handed, so callers may pass borrowed (pooled) slices — see
// httpwire.ReadBuffer. Conversely, anything an extractor returns that
// aliases the input is only valid for the buffer's lifetime; retain it by
// copying.
package match

import (
	"bytes"
	"strings"
	"unsafe"
)

// Detector is the unified matching contract: one compiled pattern asked
// whether it occurs in a byte slice. Implementations are safe for
// concurrent use and never retain text.
type Detector interface {
	Match(text []byte) bool
}

// config carries the detector construction options.
type config struct {
	lineGap bool
}

func newConfig(opts []Option) config {
	var cfg config
	for _, o := range opts {
		o(&cfg)
	}
	return cfg
}

// Option configures detector construction, mirroring the functional
// options style of internal/engine.
type Option func(*config)

// WithLineGap constrains an ordered detector's gaps to stay within one
// line — the semantics of a `.*` join without the (?s) flag. Literals
// must not themselves contain a newline.
func WithLineGap(on bool) Option { return func(c *config) { c.lineGap = on } }

// foldTable maps ASCII uppercase to lowercase and leaves every other
// byte unchanged.
var foldTable = func() (t [256]byte) {
	for i := range t {
		t[i] = byte(i)
	}
	for c := byte('A'); c <= 'Z'; c++ {
		t[c] = c + ('a' - 'A')
	}
	return
}()

// Bytes returns a read-only []byte view of s without copying. The result
// aliases the string's storage and MUST NOT be modified or written
// through; it exists so string-typed callers can feed detectors without
// paying a per-call copy.
func Bytes(s string) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice(unsafe.StringData(s), len(s))
}

// HasFoldPrefix reports whether text begins with pat under ASCII
// folding. It allocates nothing.
func HasFoldPrefix(text []byte, pat string) bool {
	if len(text) < len(pat) {
		return false
	}
	return hasFoldPrefix(text, pat)
}

// hasFoldPrefix is HasFoldPrefix without the length guard;
// len(text) >= len(pat) must hold.
func hasFoldPrefix(text []byte, pat string) bool {
	for i := 0; i < len(pat); i++ {
		if foldTable[text[i]] != foldTable[pat[i]] {
			return false
		}
	}
	return true
}

// indexByteFold returns the lowest index in text of a byte folding to c
// (c must already be folded), or -1.
func indexByteFold(text []byte, c byte) int {
	i := bytes.IndexByte(text, c)
	if 'a' <= c && c <= 'z' {
		if j := bytes.IndexByte(text, c-('a'-'A')); j >= 0 && (i < 0 || j < i) {
			i = j
		}
	}
	return i
}

// IndexFold returns the index of the first ASCII-case-insensitive
// occurrence of pat in text, or -1. It allocates nothing.
func IndexFold(text []byte, pat string) int {
	m := len(pat)
	if m == 0 {
		return 0
	}
	if m > len(text) {
		return -1
	}
	c := foldTable[pat[0]]
	limit := len(text) - m
	i := 0
	for i <= limit {
		off := indexByteFold(text[i:limit+1], c)
		if off < 0 {
			return -1
		}
		i += off
		if hasFoldPrefix(text[i:], pat) {
			return i
		}
		i++
	}
	return -1
}

// ContainsFold reports whether pat occurs in text under ASCII folding.
func ContainsFold(text []byte, pat string) bool { return IndexFold(text, pat) >= 0 }

// Literal is a single-substring Detector.
type Literal struct {
	pat string
}

// NewLiteral compiles a substring detector. The empty pattern matches
// everything, mirroring bytes.Contains.
func NewLiteral(pattern string) *Literal {
	return &Literal{pat: pattern}
}

// String implements fmt.Stringer.
func (l *Literal) String() string { return "literal(" + l.pat + ")" }

// Match implements Detector.
func (l *Literal) Match(text []byte) bool {
	return IndexFold(text, l.pat) >= 0
}

// Ordered is a Detector for a sequence of literals separated by arbitrary
// gaps — the shape of `L1.*L2.*L3` patterns. With WithLineGap the gaps
// (and therefore the whole match) must stay within a single line.
type Ordered struct {
	cfg  config
	lits []string
}

// NewOrdered compiles an ordered-literal detector. It panics if literals
// is empty, if any literal is empty, or if WithLineGap is combined with a
// literal containing a newline (programmer error, like NewHeader).
func NewOrdered(literals []string, opts ...Option) *Ordered {
	cfg := newConfig(opts)
	if len(literals) == 0 {
		panic("match: NewOrdered requires at least one literal")
	}
	for _, lit := range literals {
		if lit == "" {
			panic("match: NewOrdered literal must be non-empty")
		}
		if cfg.lineGap && strings.ContainsRune(lit, '\n') {
			panic("match: WithLineGap literal must not contain a newline")
		}
	}
	return &Ordered{cfg: cfg, lits: append([]string(nil), literals...)}
}

// Match implements Detector.
func (o *Ordered) Match(text []byte) bool {
	if !o.cfg.lineGap {
		return o.matchAnyGap(text)
	}
	// Line-gap: every literal is newline-free, so a match lives entirely
	// within one line. Scan line by line.
	for {
		nl := bytes.IndexByte(text, '\n')
		if nl < 0 {
			return o.matchAnyGap(text)
		}
		if o.matchAnyGap(text[:nl]) {
			return true
		}
		text = text[nl+1:]
	}
}

// matchAnyGap runs the greedy earliest-occurrence scan; taking the first
// occurrence of each literal in turn is optimal for subsequence matching.
func (o *Ordered) matchAnyGap(text []byte) bool {
	for _, lit := range o.lits {
		i := IndexFold(text, lit)
		if i < 0 {
			return false
		}
		text = text[i+len(lit):]
	}
	return true
}

// Between locates the span between the first occurrence of open and the
// next occurrence of close after it, ASCII-case-insensitively — the shape
// of <title>…</title> and <p>Category: …</p> extraction. The returned
// bounds exclude the delimiters and alias text. It allocates nothing.
func Between(text []byte, open, close string) (start, end int, ok bool) {
	i := IndexFold(text, open)
	if i < 0 {
		return 0, 0, false
	}
	start = i + len(open)
	j := IndexFold(text[start:], close)
	if j < 0 {
		return 0, 0, false
	}
	return start, start + j, true
}
