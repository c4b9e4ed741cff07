// Package fingerprint implements the WhatWeb-style validation stage of
// §3.1: active HTTP probing of a candidate IP with a library of
// product signatures.
//
// The scanner stage is deliberately loose; this stage is the precision
// filter ("we use the WhatWeb profiling tool to confirm the product that
// is installed on a given host"). A Signature combines matchers over
// headers (exact wire case available), HTML title, body and redirect
// Location — the observable classes Table 2 enumerates. The engine
// probes a small set of paths and ports and evaluates every Table 2
// signature against every response.
package fingerprint

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"time"

	"filtermap/internal/httpwire"
	"filtermap/internal/match"
	"filtermap/internal/netsim"
)

// Matcher tests one aspect of an HTTP response. Matchers within a
// signature are AND-ed.
type Matcher interface {
	// Match reports whether the response satisfies the condition.
	Match(resp *httpwire.Response) bool
	// Describe renders the condition for reports.
	Describe() string
}

// HeaderContains matches when the named header's value contains substr,
// case-insensitively.
type HeaderContains struct {
	Name   string
	Substr string
}

// Match implements Matcher.
func (m HeaderContains) Match(resp *httpwire.Response) bool {
	for _, v := range resp.Header.Values(m.Name) {
		if match.ContainsFold(match.Bytes(v), m.Substr) {
			return true
		}
	}
	return false
}

// Describe implements Matcher.
func (m HeaderContains) Describe() string {
	return fmt.Sprintf("header %s contains %q", m.Name, m.Substr)
}

// HeaderPresent matches when the named header exists with its exact wire
// case. McAfee's "Via-Proxy" is identified by the raw name, which is why
// the codec preserves case.
type HeaderPresent struct {
	ExactName string
}

// Match implements Matcher.
func (m HeaderPresent) Match(resp *httpwire.Response) bool {
	raw, ok := resp.Header.RawName(m.ExactName)
	return ok && raw == m.ExactName
}

// Describe implements Matcher.
func (m HeaderPresent) Describe() string {
	return fmt.Sprintf("header %q present (exact case)", m.ExactName)
}

// TitleContains matches when the HTML <title> contains substr,
// case-insensitively.
type TitleContains struct {
	Substr string
}

// Match implements Matcher.
func (m TitleContains) Match(resp *httpwire.Response) bool {
	title, ok := ExtractTitleBytes(resp.Body)
	return ok && match.ContainsFold(title, m.Substr)
}

// Describe implements Matcher.
func (m TitleContains) Describe() string {
	return fmt.Sprintf("HTML title contains %q", m.Substr)
}

// BodyContains matches when the body contains substr, case-insensitively.
type BodyContains struct {
	Substr string
}

// Match implements Matcher.
func (m BodyContains) Match(resp *httpwire.Response) bool {
	return match.ContainsFold(resp.Body, m.Substr)
}

// Describe implements Matcher.
func (m BodyContains) Describe() string {
	return fmt.Sprintf("body contains %q", m.Substr)
}

// LocationMatches matches 3xx responses whose Location satisfies the
// predicate — the shape of the Blue Coat (cfauth.com) and Websense
// (port 15871 + ws-session) signatures in Table 2.
type LocationMatches struct {
	Desc string
	Fn   func(loc string) bool
}

// Match implements Matcher.
func (m LocationMatches) Match(resp *httpwire.Response) bool {
	if resp.StatusCode < 300 || resp.StatusCode > 399 {
		return false
	}
	loc := resp.Header.Get("Location")
	return loc != "" && m.Fn(loc)
}

// Describe implements Matcher.
func (m LocationMatches) Describe() string {
	return "Location " + m.Desc
}

// ExtractTitleBytes returns the contents of the first <title> element as
// a trimmed sub-slice of body (no copy, nothing allocated — a miss is
// free). The case-insensitive tag search folds ASCII byte-by-byte: a
// rune-wise ToLower re-encodes invalid UTF-8 (scanned banners are hostile
// bytes, not documents) and would shift the offsets used to slice the
// original.
func ExtractTitleBytes(body []byte) ([]byte, bool) {
	start, end, ok := match.Between(body, "<title>", "</title>")
	if !ok {
		return nil, false
	}
	return bytes.TrimSpace(body[start:end]), true
}

// Probe describes one request the engine sends while profiling a host.
type Probe struct {
	Port uint16
	Path string
}

// probes covers the paths and ports where the four products answer.
var probes = []Probe{
	{Port: 80, Path: "/"},
	{Port: 8080, Path: "/"},
	{Port: 8080, Path: "/webadmin/"},
	{Port: 4712, Path: "/"},
	{Port: 8082, Path: "/"},
	{Port: 15871, Path: "/cgi-bin/blockpage.cgi"},
}

// Signature identifies one product from a probed response.
type Signature struct {
	// Product is the canonical product name, e.g. "Netsweeper".
	Product string
	// Name distinguishes multiple signatures for one product.
	Name string
	// Matchers are AND-ed against a single response.
	Matchers []Matcher
}

// Matches reports whether every matcher accepts the response.
func (s *Signature) Matches(resp *httpwire.Response) bool {
	if len(s.Matchers) == 0 {
		return false
	}
	for _, m := range s.Matchers {
		if !m.Match(resp) {
			return false
		}
	}
	return true
}

// Describe renders the signature conditions.
func (s *Signature) Describe() string {
	parts := make([]string, len(s.Matchers))
	for i, m := range s.Matchers {
		parts[i] = m.Describe()
	}
	return fmt.Sprintf("%s[%s]: %s", s.Product, s.Name, strings.Join(parts, " AND "))
}

// Match is one validated product observation on a host.
type Match struct {
	Addr      netip.Addr
	Port      uint16
	Path      string
	Product   string
	Signature string
	// Evidence is the matched response's status line.
	Evidence string
}

// Engine probes hosts and evaluates the Table 2 signatures.
type Engine struct {
	// Vantage is the probing host.
	Vantage *netsim.Host
}

// probeTimeout bounds each probe.
const probeTimeout = 5 * time.Second

// Identify probes addr and returns every signature match, sorted by
// (product, port). A probe that fails at the transport layer is skipped;
// if every probe fails that way the host yielded no evidence at all and
// Identify returns the last transport error, so callers can retry or
// record the candidate as unverifiable instead of silently treating it
// as a clean non-match.
func (e *Engine) Identify(ctx context.Context, addr netip.Addr) ([]Match, error) {
	if e.Vantage == nil {
		return nil, fmt.Errorf("fingerprint: no vantage host")
	}
	var out []Match
	fetched := 0
	var lastErr error
	// One pooled read buffer serves the whole sweep; every response is
	// fully evaluated before the next probe reuses the buffer, and Match
	// copies the evidence it keeps.
	buf := httpwire.GetReadBuffer()
	defer buf.Release()
	for _, p := range probes {
		resp, err := e.fetch(ctx, addr, p, buf)
		if err != nil {
			// A refusal is a definite observation — the host is up with no
			// service on that port — not lost evidence.
			if !errors.Is(err, netsim.ErrConnRefused) {
				lastErr = err
			}
			continue
		}
		fetched++
		for _, sig := range Table2Signatures() {
			if sig.Matches(resp) {
				out = append(out, Match{
					Addr:      addr,
					Port:      p.Port,
					Path:      p.Path,
					Product:   sig.Product,
					Signature: sig.Name,
					Evidence:  statusLineOf(resp.RawHead),
				})
			}
		}
	}
	if fetched == 0 && lastErr != nil {
		return nil, fmt.Errorf("fingerprint %s: every probe failed: %w", addr, lastErr)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Product != out[j].Product {
			return out[i].Product < out[j].Product
		}
		if out[i].Port != out[j].Port {
			return out[i].Port < out[j].Port
		}
		return out[i].Path < out[j].Path
	})
	return out, nil
}

// statusLineOf returns the trimmed first line of a raw head without
// stringifying the whole block.
func statusLineOf(rawHead []byte) string {
	line := rawHead
	if i := bytes.Index(line, []byte("\r\n")); i >= 0 {
		line = line[:i]
	}
	return string(bytes.TrimSpace(line))
}

// Products returns the distinct product names Identify found on addr.
func (e *Engine) Products(ctx context.Context, addr netip.Addr) ([]string, error) {
	matches, err := e.Identify(ctx, addr)
	if err != nil {
		return nil, err
	}
	set := make(map[string]bool)
	for _, m := range matches {
		set[m.Product] = true
	}
	out := make([]string, 0, len(set))
	for p := range set {
		out = append(out, p)
	}
	sort.Strings(out)
	return out, nil
}

// fetch performs one probe. The returned response borrows buf and is
// only valid until the next read through it.
func (e *Engine) fetch(ctx context.Context, addr netip.Addr, p Probe, buf *httpwire.ReadBuffer) (*httpwire.Response, error) {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()
	conn, err := e.Vantage.Dial(ctx, addr, p.Port)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl) //nolint:errcheck // best-effort
	}
	req := &httpwire.Request{
		Method: "GET",
		Target: p.Path,
		Proto:  "HTTP/1.1",
		Header: httpwire.NewHeader("Host", addr.String(), "Connection", "close", "User-Agent", "WhatWeb-sim/0.4"),
	}
	if _, err := req.WriteTo(conn); err != nil {
		return nil, err
	}
	resp, err := httpwire.ReadResponseBuffered(buf, conn, false)
	if err != nil {
		return nil, err
	}
	return resp, nil
}
