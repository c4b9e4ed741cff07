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
	"context"
	"fmt"
	"net/netip"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/httpwire"
	"filtermap/internal/intern"
	"filtermap/internal/netsim"
)

// DefaultPorts is the port set swept when none is configured: the HTTP
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
	DefaultProbeTimeout   = 5 * time.Second
	DefaultScanWorkers    = 32
	DefaultBodyExcerptLen = 2048
)

// Scanner probes hosts and builds an Index. Concurrency, timeout, retry
// and observability knobs live in the shared engine Config.
type Scanner struct {
	// Vantage is the host the scan originates from (a neutral,
	// unfiltered network position).
	Vantage *netsim.Host
	// Ports is the port sweep set; nil means DefaultPorts.
	Ports []uint16
	// BodyExcerptLen bounds indexed body bytes (default 2048).
	BodyExcerptLen int
	// Config carries the shared execution knobs (workers, timeout, retry,
	// stats, observer). The zero value uses the scanner defaults (32
	// workers, 5s per probe).
	Config engine.Config
}

// New builds a Scanner from the research vantage and engine options:
//
//	scanner.New(vantage, engine.WithWorkers(64), engine.WithStats(stats))
func New(vantage *netsim.Host, opts ...engine.Option) *Scanner {
	return &Scanner{Vantage: vantage, Config: engine.NewConfig(opts...)}
}

func (s *Scanner) ports() []uint16 {
	if len(s.Ports) > 0 {
		return s.Ports
	}
	return DefaultPorts
}

func (s *Scanner) excerptLen() int {
	if s.BodyExcerptLen > 0 {
		return s.BodyExcerptLen
	}
	return DefaultBodyExcerptLen
}

// engineConfig resolves the effective execution config: Config values
// win over the scan defaults.
func (s *Scanner) engineConfig() engine.Config {
	cfg := s.Config
	cfg.Workers = cfg.WorkersOr(DefaultScanWorkers)
	cfg.Timeout = cfg.TimeoutOr(DefaultProbeTimeout)
	return cfg
}

// ScanAddrs probes every addr×port combination and returns an Index of
// services that answered. Probes run through the shared engine pool;
// unanswered probes are normal (dark space, closed ports) and are not
// failures.
func (s *Scanner) ScanAddrs(ctx context.Context, addrs []netip.Addr) (*Index, error) {
	if s.Vantage == nil {
		return nil, fmt.Errorf("scanner: no vantage host")
	}
	type job struct {
		addr netip.Addr
		port uint16
	}
	jobs := make([]job, 0, len(addrs)*len(s.ports()))
	for _, a := range addrs {
		for _, p := range s.ports() {
			jobs = append(jobs, job{a, p})
		}
	}
	idx := NewIndex()
	err := engine.ForEach(ctx, s.engineConfig(), "scan", jobs, func(ctx context.Context, j job) error {
		if banner, ok := s.probe(ctx, j.addr, j.port); ok {
			idx.Add(banner)
		}
		return nil
	})
	return idx, err
}

// ScanNetwork sweeps every registered host in the network.
func (s *Scanner) ScanNetwork(ctx context.Context) (*Index, error) {
	return s.ScanAddrs(ctx, s.Vantage.Network().Addrs())
}

// ScanPrefix sweeps every address of an IP prefix, census-style: unlike
// ScanNetwork it does not know which addresses are allocated, so dark
// space costs a (fast) refused connection per port. maxAddrs bounds the
// sweep (0 means 65536, a /16).
func (s *Scanner) ScanPrefix(ctx context.Context, prefix netip.Prefix, maxAddrs int) (*Index, error) {
	if maxAddrs <= 0 {
		maxAddrs = 1 << 16
	}
	var addrs []netip.Addr
	for a := prefix.Addr(); prefix.Contains(a) && len(addrs) < maxAddrs; a = a.Next() {
		addrs = append(addrs, a)
	}
	return s.ScanAddrs(ctx, addrs)
}

// probe performs one banner grab: TCP connect, plain GET /, read response.
// The per-probe timeout arrives as the engine-imposed ctx deadline.
func (s *Scanner) probe(ctx context.Context, addr netip.Addr, port uint16) (Banner, bool) {
	conn, err := s.Vantage.Dial(ctx, addr, port)
	if err != nil {
		return Banner{}, false
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl) //nolint:errcheck // best-effort
	}

	req := &httpwire.Request{
		Method: "GET",
		Target: "/",
		Proto:  "HTTP/1.0",
		Header: httpwire.NewHeader("Host", addr.String(), "Connection", "close"),
	}
	if _, err := req.WriteTo(conn); err != nil {
		return Banner{}, false
	}
	// The banner copies what it keeps (head string, excerpt string), so
	// the pooled read buffer can be released before returning.
	buf := httpwire.GetReadBuffer()
	defer buf.Release()
	resp, err := httpwire.ReadResponseBuffered(buf, conn, false)
	if err != nil {
		return Banner{}, false
	}

	network := s.Vantage.Network()
	hostname, _ := network.ReverseLookup(addr)
	excerpt := string(resp.Body)
	if len(excerpt) > s.excerptLen() {
		excerpt = excerpt[:s.excerptLen()]
	}
	head := string(resp.RawHead)
	statusLine, _, _ := strings.Cut(head, "\r\n")
	return Banner{
		Addr:        addr,
		Port:        port,
		Hostname:    hostname,
		Country:     CountryFromHostname(hostname),
		StatusLine:  statusLine,
		RawHead:     head,
		BodyExcerpt: excerpt,
		ScannedAt:   network.Clock().Now(),
	}, true
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
// The searchable text of each banner (Banner.Text) is computed once at
// Add time and cached as bytes, so queries scan cached slices instead of
// lowercasing every banner on every search.
//
// Banner strings are interned at Add time: at nation scale tens of
// thousands of synthetic hosts answer from a handful of templates, and
// interning folds every duplicate hostname, header block, body excerpt
// and cached search text onto one backing copy, so index memory grows
// with distinct templates instead of host count.
type Index struct {
	mu        sync.RWMutex
	banners   []Banner
	texts     [][]byte // texts[i] == []byte(banners[i].Text()), cached at Add
	strs      *intern.Table
	textBytes map[string][]byte // interned text → shared cached byte form
}

// NewIndex returns an empty index.
func NewIndex() *Index {
	return &Index{strs: intern.NewTable(), textBytes: make(map[string][]byte)}
}

// Add inserts a banner.
func (x *Index) Add(b Banner) {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.strs != nil {
		b.Hostname = x.strs.String(b.Hostname)
		b.Country = x.strs.String(b.Country)
		b.StatusLine = x.strs.String(b.StatusLine)
		b.RawHead = x.strs.String(b.RawHead)
		b.BodyExcerpt = x.strs.String(b.BodyExcerpt)
	}
	text := b.Text()
	tb, ok := x.textBytes[text]
	if !ok {
		tb = []byte(text)
		if x.textBytes != nil {
			x.textBytes[text] = tb
		}
	}
	x.banners = append(x.banners, b)
	x.texts = append(x.texts, tb)
}

// Len returns the number of indexed banners.
func (x *Index) Len() int {
	x.mu.RLock()
	defer x.mu.RUnlock()
	return len(x.banners)
}

// All returns every banner sorted by (addr, port).
func (x *Index) All() []Banner {
	x.mu.RLock()
	out := make([]Banner, len(x.banners))
	copy(out, x.banners)
	x.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr.Less(out[j].Addr)
		}
		return out[i].Port < out[j].Port
	})
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
			var p int
			if _, err := fmt.Sscanf(tok[len("port:"):], "%d", &p); err != nil || p < 1 || p > 65535 {
				return Query{}, fmt.Errorf("scanner: bad port filter %q", tok)
			}
			out.Port = uint16(p)
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

// Query returns the query the compiled form was built from.
func (cq *CompiledQuery) Query() Query { return cq.query }

// matchText reports whether a banner satisfies every keyword.
func (cq *CompiledQuery) matchText(port uint16, text []byte) bool {
	for _, kw := range cq.plain {
		if !bytes.Contains(text, kw) {
			return false
		}
	}
	for _, pk := range cq.ports {
		if port != pk.port || !bytes.Contains(text, pk.path) {
			return false
		}
	}
	return true
}

// SearchBytes runs a compiled query over the cached banner text, appends
// matches to dst and returns it, with the appended region sorted by
// (addr, port). With a pre-compiled query and a reused dst of sufficient
// capacity it performs zero heap allocations. Typical use:
//
//	cq := q.Compile()
//	for ... {
//		hits = idx.SearchBytes(cq, hits[:0])
//	}
func (x *Index) SearchBytes(cq *CompiledQuery, dst []Banner) []Banner {
	q := &cq.query
	start := len(dst)
	x.mu.RLock()
	for i := range x.banners {
		b := &x.banners[i]
		if q.Port != 0 && b.Port != q.Port {
			continue
		}
		if q.Country != "" && b.Country != q.Country {
			continue
		}
		if cq.matchText(b.Port, x.texts[i]) {
			dst = append(dst, *b)
		}
	}
	x.mu.RUnlock()
	slices.SortFunc(dst[start:], func(a, b Banner) int {
		if a.Addr != b.Addr {
			if a.Addr.Less(b.Addr) {
				return -1
			}
			return 1
		}
		switch {
		case a.Port < b.Port:
			return -1
		case a.Port > b.Port:
			return 1
		default:
			return 0
		}
	})
	return dst
}

// SearchString parses and runs q.
func (x *Index) SearchString(q string) ([]Banner, error) {
	parsed, err := ParseQuery(q)
	if err != nil {
		return nil, err
	}
	return x.SearchBytes(parsed.Compile(), nil), nil
}

func parsePort(s string) (uint16, error) {
	var p int
	if _, err := fmt.Sscanf(s, "%d", &p); err != nil {
		return 0, err
	}
	if p < 1 || p > 65535 {
		return 0, fmt.Errorf("out of range")
	}
	return uint16(p), nil
}

// Countries returns the distinct banner countries, sorted.
func (x *Index) Countries() []string {
	x.mu.RLock()
	defer x.mu.RUnlock()
	set := make(map[string]bool)
	for _, b := range x.banners {
		if b.Country != "" {
			set[b.Country] = true
		}
	}
	out := make([]string, 0, len(set))
	for c := range set {
		out = append(out, c)
	}
	sort.Strings(out)
	return out
}
