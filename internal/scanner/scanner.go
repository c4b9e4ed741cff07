// Package scanner implements the banner-scan-and-search substrate of §3.1:
// the stand-in for the Shodan search engine and the Internet Census data.
//
// A Scanner sweeps address ranges from a vantage host, probing a port set
// and recording what an unauthenticated HTTP GET returns — status line,
// raw headers, and a body excerpt. The resulting Index supports the
// keyword queries of Table 2 ("proxysg", "cfru=", "8080/webadmin/", ...)
// with country: and port: filters, mirroring how the paper combines
// keywords "with each of the two letter country-code top-level domains".
//
// The scanner is deliberately not conservative (§3.1: "we are not
// conservative, and rely on the following step to confirm"): anything that
// answers is indexed, and false positives are left for fingerprint
// validation to reject.
package scanner

import (
	"bytes"
	"cmp"
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/httpwire"
	"filtermap/internal/intern"
	"filtermap/internal/netsim"
)

// DefaultPorts is the port set every scan sweeps: the HTTP
// ports where the paper's four products expose themselves.
var DefaultPorts = []uint16{80, 443, 8080, 4712, 8082, 15871}

// Banner is one indexed service observation.
type Banner struct {
	Addr netip.Addr
	Port uint16
	// Hostname is the reverse-DNS name at scan time ("" if none).
	Hostname string
	// Country is derived from the hostname's ccTLD when possible ("" if
	// not derivable). Shodan exposes exactly this kind of weak location
	// metadata; authoritative geolocation happens later in the pipeline.
	Country string
	// StatusLine is the response's first line, e.g. "HTTP/1.1 302 Found".
	StatusLine string
	// RawHead is the exact status line + header bytes.
	RawHead string
	// BodyExcerpt is the leading bytes of the body.
	BodyExcerpt string
	// ScannedAt is when the observation was made.
	ScannedAt time.Time
}

// Text returns the searchable text of the banner: hostname, head and body
// excerpt, lowercased.
func (b *Banner) Text() string {
	return strings.ToLower(b.Hostname + "\n" + b.RawHead + "\n" + b.BodyExcerpt)
}

// Default probe bounds (used when the engine config does not set them).
const (
	DefaultProbeTimeout = 5 * time.Second
	DefaultScanWorkers  = 32
)

// bodyExcerptLen bounds the body bytes a banner keeps.
const bodyExcerptLen = 2048

// Scanner probes hosts and builds an Index. Concurrency, timeout, retry
// and observability knobs live in the shared engine Config.
type Scanner struct {
	// Vantage is the host the scan originates from (a neutral,
	// unfiltered network position).
	Vantage *netsim.Host
	// Config carries the shared execution knobs (workers, timeout, retry,
	// stats, observer). The zero value uses the scanner defaults (32
	// workers, 5s per probe).
	Config engine.Config
}

// engineConfig resolves the scan pool: Config.Workers wins over the scan
// default. The engine imposes no per-item timeout: each probe bounds
// itself with a connection deadline from Config.Timeout (default 5s),
// so a probe that meets a closed port costs no context and no timer.
func (s *Scanner) engineConfig() engine.Config {
	cfg := s.Config
	cfg.Workers = cfg.WorkersOr(DefaultScanWorkers)
	cfg.Timeout = 0
	return cfg
}

// ScanAddrs probes every addr×port combination and returns an Index of
// services that answered. Each item in the shared engine pool is a run
// of consecutive addresses (see runLength), and it probes each host's
// ports in order, host after host; unanswered probes are normal (dark
// space, closed ports) and are not failures. The engine's "scan" stage
// therefore counts runs, not hosts. A cancelled scan stops within one
// host.
//
// Each probe is bounded by Config.Timeout from its host's latest clock
// reading, taken when the host's turn starts and again after every probe
// whose dial connected. So the bound starts before the probe's dial and
// is never longer than Config.Timeout; a silent port cannot use up the
// bound of the ports or hosts after it; and a probe refused at once
// (most of a sweep) reads no clock.
func (s *Scanner) ScanAddrs(ctx context.Context, addrs []netip.Addr) (*Index, error) {
	if s.Vantage == nil {
		return nil, fmt.Errorf("scanner: no vantage host")
	}
	idx := NewIndex()
	timeout := s.Config.TimeoutOr(DefaultProbeTimeout)
	cfg := s.engineConfig()
	runs := slices.Collect(slices.Chunk(addrs, runLength(len(addrs), cfg.Workers)))
	err := engine.ForEach(ctx, cfg, "scan", runs, func(ctx context.Context, run []netip.Addr) error {
		done := ctx.Done()
		for _, addr := range run {
			select {
			case <-done:
				return nil
			default:
			}
			now := time.Now()
			for _, port := range DefaultPorts {
				if s.probe(ctx, idx, addr, port, now.Add(timeout)) {
					now = time.Now()
				}
			}
		}
		return nil
	})
	return idx, err
}

// maxRun caps the hosts in one scan item.
const maxRun = 64

// runLength is how many consecutive hosts one scan item probes: about
// eight items per worker, so a sweep still spreads evenly over the pool,
// and at most maxRun hosts. A nation sweep (about 106k hosts on 32
// workers) pays the engine's per-item costs (the claim counter, two
// clock reads, the stage counters' lock and a result slot) once per 64
// hosts, and the default world's 131 hosts scan one per item.
func runLength(hosts, workers int) int {
	return min(maxRun, max(1, hosts/(8*workers)))
}

// ScanNetwork sweeps every registered host in the network.
func (s *Scanner) ScanNetwork(ctx context.Context) (*Index, error) {
	return s.ScanAddrs(ctx, s.Vantage.Network().Addrs())
}

// probe performs one banner grab into x: TCP connect, plain GET /, read
// response. deadline bounds the whole probe, dial included: it is taken
// before the dial, so a dial that outlasts it fails the first write. A
// caller's earlier ctx deadline still wins. probe reports whether the
// dial connected.
func (s *Scanner) probe(ctx context.Context, x *Index, addr netip.Addr, port uint16, deadline time.Time) bool {
	conn, err := s.Vantage.DialProbe(ctx, addr, port)
	if err != nil {
		return false
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok && dl.Before(deadline) {
		deadline = dl
	}
	conn.SetDeadline(deadline) //nolint:errcheck // best-effort

	req := probeRequests.Get().(*[]byte)
	*req = appendProbeRequest((*req)[:0], addr)
	_, err = conn.Write(*req)
	probeRequests.Put(req)
	if err != nil {
		return true
	}
	// The head and body borrow the pooled read buffer; the banner keeps
	// interned copies of the head and of the excerpt alone, so neither
	// the buffer nor the rest of the body outlives the probe.
	buf := httpwire.GetReadBuffer()
	defer buf.Release()
	head, body, err := buf.ReadRaw(conn)
	if err != nil {
		return true
	}
	body = body[:min(len(body), bodyExcerptLen)]

	network := s.Vantage.Network()
	hostname, _ := network.ReverseLookup(addr)
	b := Banner{
		Addr:        addr,
		Port:        port,
		Hostname:    x.strs.String(hostname),
		Country:     x.strs.String(CountryFromHostname(hostname)),
		RawHead:     x.strs.Bytes(head),
		BodyExcerpt: x.strs.Bytes(body),
		ScannedAt:   network.Clock().Now(),
	}
	b.StatusLine, _, _ = strings.Cut(b.RawHead, "\r\n")
	x.insert(b)
	return true
}

// probeRequests recycles the probe's request bytes: Write copies them
// out before returning, so one buffer serves every probe in turn.
var probeRequests = sync.Pool{New: func() any { return new([]byte) }}

// appendProbeRequest appends the banner grab's request for addr to dst:
// exactly the bytes Request.WriteTo writes for a GET / over HTTP/1.0
// with a Host header and Connection: close.
func appendProbeRequest(dst []byte, addr netip.Addr) []byte {
	dst = append(dst, "GET / HTTP/1.0\r\nHost: "...)
	dst = addr.AppendTo(dst)
	return append(dst, "\r\nConnection: close\r\n\r\n"...)
}

// CountryFromHostname derives an upper-case country code from a ccTLD
// ("ns1.qtel.com.qa" -> "QA"). Generic TLDs yield "".
func CountryFromHostname(hostname string) string {
	hostname = strings.TrimSuffix(strings.ToLower(hostname), ".")
	i := strings.LastIndexByte(hostname, '.')
	if i < 0 || len(hostname)-i-1 != 2 {
		return ""
	}
	tld := hostname[i+1:]
	if tld == "co" || !isAlpha(tld) {
		return ""
	}
	return strings.ToUpper(tld)
}

func isAlpha(s string) bool {
	for i := 0; i < len(s); i++ {
		if s[i] < 'a' || s[i] > 'z' {
			return false
		}
	}
	return true
}

// Index is a searchable collection of banners: the Shodan stand-in.
//
// Banner strings are interned at Add time: at nation scale tens of
// thousands of synthetic hosts answer from a handful of templates, and
// interning folds every duplicate hostname, header block and body
// excerpt onto one backing copy, so index memory grows with distinct
// templates instead of host count.
//
// The searchable text of a banner (Banner.Text) depends only on its
// interned (hostname, head, excerpt) triple, so the index keeps one
// lowered text per distinct (hostname, country, head, excerpt) key with
// the banners that carry it. A query with a country: filter skips the
// texts of every other country; it tests each remaining text once and
// visits only the banners whose text matched.
//
// Banners are stored in chunks that are never reallocated, so the index
// grows without copying what it already holds. An Index must be made
// with NewIndex.
type Index struct {
	mu     sync.RWMutex
	chunks [][]Banner // every banner, in insertion order
	n      int
	texts  []indexText
	textOf map[textKey]int // a triple's position in texts
	strs   *intern.Table
}

// textKey is the interned triple a banner's search text is built from,
// plus the banner's country.
type textKey struct{ hostname, country, head, excerpt string }

// indexText is one distinct search text and the banners that carry it,
// all of one country.
type indexText struct {
	text    []byte    // Banner.Text() of each of banners
	country string    // Banner.Country of each of banners
	banners []*Banner // into Index.chunks
}

// maxChunk caps a banner chunk. Chunks start small and double up to it,
// so a small index stays small.
const maxChunk = 4096

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{strs: intern.NewTable(), textOf: make(map[textKey]int)}
}

// Add inserts a banner.
func (x *Index) Add(b Banner) {
	b.Hostname = x.strs.String(b.Hostname)
	b.Country = x.strs.String(b.Country)
	b.StatusLine = x.strs.String(b.StatusLine)
	b.RawHead = x.strs.String(b.RawHead)
	b.BodyExcerpt = x.strs.String(b.BodyExcerpt)
	x.insert(b)
}

// insert indexes a banner whose strings are already interned in x.strs.
func (x *Index) insert(b Banner) {
	key := textKey{b.Hostname, b.Country, b.RawHead, b.BodyExcerpt}
	x.mu.Lock()
	defer x.mu.Unlock()
	id, ok := x.textOf[key]
	if !ok {
		id = len(x.texts)
		x.texts = append(x.texts, indexText{text: []byte(b.Text()), country: b.Country})
		x.textOf[key] = id
	}
	last := len(x.chunks) - 1
	if last < 0 || len(x.chunks[last]) == cap(x.chunks[last]) {
		size := 16
		if last >= 0 {
			size = min(2*cap(x.chunks[last]), maxChunk)
		}
		x.chunks = append(x.chunks, make([]Banner, 0, size))
		last++
	}
	x.chunks[last] = append(x.chunks[last], b)
	x.n++
	t := &x.texts[id]
	t.banners = append(t.banners, &x.chunks[last][len(x.chunks[last])-1])
}

// Len returns the number of indexed banners.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return x.n
}

// All returns every banner sorted by (addr, port).
func (x *Index) All() []Banner {
	x.mu.RLock()
	out := make([]Banner, 0, x.n)
	for _, c := range x.chunks {
		out = append(out, c...)
	}
	x.mu.RUnlock()
	slices.SortFunc(out, compareBanners)
	return out
}

// Query is a parsed banner search: free keywords (all must match the
// banner text, case-insensitively) plus optional filters.
type Query struct {
	Keywords []string
	Country  string
	Port     uint16
}

// ParseQuery parses the Shodan-style query language:
//
//	proxysg country:SA port:8080
//
// Unfiltered terms are substring keywords; "country:" and "port:" are
// filters. Quotes group multi-word keywords: `"mcafee web gateway"`.
func ParseQuery(q string) (Query, error) {
	var out Query
	for _, tok := range tokenize(q) {
		switch {
		case strings.HasPrefix(strings.ToLower(tok), "country:"):
			out.Country = strings.ToUpper(tok[len("country:"):])
		case strings.HasPrefix(strings.ToLower(tok), "port:"):
			p, err := parsePort(tok[len("port:"):])
			if err != nil {
				return Query{}, fmt.Errorf("scanner: bad port filter %q", tok)
			}
			out.Port = p
		default:
			out.Keywords = append(out.Keywords, strings.ToLower(tok))
		}
	}
	return out, nil
}

// tokenize splits on spaces, honouring double quotes.
func tokenize(q string) []string {
	var out []string
	var cur strings.Builder
	inQuote := false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range q {
		switch {
		case r == '"':
			inQuote = !inQuote
		case r == ' ' && !inQuote:
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}

// CompiledQuery is a Query lowered for the byte-first search path:
// keywords are split once into plain substrings and port-qualified
// ("8080/webadmin/") forms, as byte slices ready to scan cached banner
// text. Compile once, search many times.
type CompiledQuery struct {
	query Query
	plain [][]byte // must all occur in the banner text
	ports []portKeyword
}

type portKeyword struct {
	port uint16
	path []byte
}

// Compile lowers the query for Index.SearchBytes.
func (q Query) Compile() *CompiledQuery {
	cq := &CompiledQuery{query: q}
	for _, kw := range q.Keywords {
		// Port-qualified keywords like "8080/webadmin/" match the
		// combination of listening port and path evidence.
		if i := strings.IndexByte(kw, '/'); i > 0 {
			if port, err := parsePort(kw[:i]); err == nil {
				cq.ports = append(cq.ports, portKeyword{port: port, path: []byte(strings.ToLower(kw[i:]))})
				continue
			}
		}
		cq.plain = append(cq.plain, []byte(kw))
	}
	return cq
}

// matchText reports whether a search text holds every keyword, a
// port-qualified one by its path.
func (cq *CompiledQuery) matchText(text []byte) bool {
	for _, kw := range cq.plain {
		if !bytes.Contains(text, kw) {
			return false
		}
	}
	for _, pk := range cq.ports {
		if !bytes.Contains(text, pk.path) {
			return false
		}
	}
	return true
}

// matchBanner checks what a banner's text and its country cannot
// decide: the port filter and the port of each port-qualified keyword.
func (cq *CompiledQuery) matchBanner(b *Banner) bool {
	if q := &cq.query; q.Port != 0 && b.Port != q.Port {
		return false
	}
	for _, pk := range cq.ports {
		if b.Port != pk.port {
			return false
		}
	}
	return true
}

// SearchBytes runs a compiled query over the index, appends matches to
// dst and returns it, with the appended region sorted by (addr, port).
// A country filter skips the texts of every other country unread. With
// a pre-compiled query and a reused dst of sufficient capacity it
// performs zero heap allocations. Typical use:
//
//	cq := q.Compile()
//	for ... {
//		hits = idx.SearchBytes(cq, hits[:0])
//	}
func (x *Index) SearchBytes(cq *CompiledQuery, dst []Banner) []Banner {
	start := len(dst)
	country := cq.query.Country
	x.mu.RLock()
	for i := range x.texts {
		t := &x.texts[i]
		if country != "" && t.country != country || !cq.matchText(t.text) {
			continue
		}
		for _, b := range t.banners {
			if cq.matchBanner(b) {
				dst = append(dst, *b)
			}
		}
	}
	x.mu.RUnlock()
	slices.SortFunc(dst[start:], compareBanners)
	return dst
}

// compareBanners orders banners by (addr, port).
func compareBanners(a, b Banner) int {
	if c := a.Addr.Compare(b.Addr); c != 0 {
		return c
	}
	return cmp.Compare(a.Port, b.Port)
}

// SearchString parses and runs q.
func (x *Index) SearchString(q string) ([]Banner, error) {
	parsed, err := ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return x.SearchBytes(parsed.Compile(), nil), nil
}

// parsePort parses a TCP port: decimal digits alone, 1 to 65535.
func parsePort(s string) (uint16, error) {
	p, err := strconv.ParseUint(s, 10, 16)
	if err != nil {
		return 0, err
	}
	if p == 0 {
		return 0, fmt.Errorf("port 0")
	}
	return uint16(p), nil
}

// Countries returns the distinct banner countries, sorted.
func (x *Index) Countries() []string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	set := make(map[string]bool)
	for _, c := range x.chunks {
		for i := range c {
			if c[i].Country != "" {
				set[c[i].Country] = true
			}
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
