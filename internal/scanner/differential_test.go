package scanner

import (
	"net/netip"
	"sort"
	"strings"
	"sync"
	"testing"
)

// referenceSearch is the seed search implementation, frozen: rebuild the
// lowered banner text per banner per query and run matchKeyword over it.
// The cached-text/CompiledQuery path must agree with it everywhere.
func referenceSearch(x *Index, q Query) []Banner {
	x.mu.RLock()
	defer x.mu.RUnlock()
	var out []Banner
	for _, b := range x.banners {
		if q.Port != 0 && b.Port != q.Port {
			continue
		}
		if q.Country != "" && b.Country != q.Country {
			continue
		}
		text := b.Text()
		ok := true
		for _, kw := range q.Keywords {
			if !matchKeyword(b, text, kw) {
				ok = false
				break
			}
		}
		if ok {
			out = append(out, b)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Addr != out[j].Addr {
			return out[i].Addr.Less(out[j].Addr)
		}
		return out[i].Port < out[j].Port
	})
	return out
}

// matchKeyword matches one keyword against a banner the way the seed
// implementation did, before Query.Compile lowered keywords once.
func matchKeyword(b Banner, text, kw string) bool {
	if i := strings.IndexByte(kw, '/'); i > 0 {
		if port, err := parsePort(kw[:i]); err == nil {
			return b.Port == port && strings.Contains(text, strings.ToLower(kw[i:]))
		}
	}
	return strings.Contains(text, kw)
}

// differentialIndex builds an index whose banners exercise the cached
// text path: mixed case, Unicode (İ lowers to a multi-byte sequence),
// invalid UTF-8 (strings.ToLower re-encodes it as U+FFFD), multiple
// ports, countries.
func differentialIndex() *Index {
	idx := NewIndex()
	a := netip.MustParseAddr("10.1.0.0")
	add := func(port uint16, host, country, head, body string) {
		a = a.Next()
		idx.Add(Banner{Addr: a, Port: port, Hostname: host, Country: country, RawHead: head, BodyExcerpt: body})
	}
	add(8080, "ns1.example.qa", "QA", "HTTP/1.1 200 OK\r\nServer: Netsweeper WebAdmin\r\n", "<title>NETSWEEPER WebAdmin</title>")
	add(8080, "h2.example", "US", "HTTP/1.1 302 Found\r\nLocation: /webadmin/deny/\r\n", "")
	add(80, "h3.example", "US", "HTTP/1.1 200 OK\r\nServer: Apache\r\n", "ordinary page")
	add(15871, "h4.example.sa", "SA", "HTTP/1.1 200 OK\r\n", "blockpage.cgi?ws-session=1")
	add(8080, "türk.example.tr", "TR", "HTTP/1.1 200 OK\r\nServer: \xc4\xb0STANBUL\r\n", "İ and ı")
	add(8080, "h6.example", "", "HTTP/1.1 200 OK\r\nX: \xff\xferaw bytes\r\n", "body \xff excerpt")
	add(443, "h7.example", "US", "HTTP/1.1 403 Forbidden\r\nServer: Blue Coat ProxySG\r\n", "")
	return idx
}

func differentialQueries(t *testing.T) []Query {
	t.Helper()
	var out []Query
	for _, s := range []string{
		"netsweeper",
		"NETSWEEPER", // manual-uppercase keywords never match (both impls)
		`"netsweeper webadmin"`,
		"webadmin country:QA",
		"8080/webadmin port:8080",
		"8080/webadmin/deny",
		"proxysg",
		"blockpage.cgi country:SA",
		"istanbul",
		"port:8080",
		"",
	} {
		q, err := ParseQuery(s)
		if err != nil {
			t.Fatalf("ParseQuery(%q): %v", s, err)
		}
		out = append(out, q)
	}
	// Hand-built queries the parser can't produce.
	out = append(out,
		Query{Keywords: []string{"İSTANBUL"}},            // Unicode fold handled by ToLower at Add time only
		Query{Keywords: []string{"\xff"}},                // invalid UTF-8 keyword
		Query{Keywords: []string{"99999/x"}},             // port out of range: plain keyword
		Query{Keywords: []string{"8080/WEBADMIN"}},       // port-qualified path is lowercased at compile
		Query{Keywords: []string{"/slash-prefix"}},       // '/' at index 0: plain keyword
		Query{Keywords: []string{"443/"}, Country: "US"}, // empty path after port
	)
	return out
}

func sameBanners(a, b []Banner) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// TestDifferentialSearch checks SearchBytes (cached text + compiled queries)
// against the frozen reference, serially and from 8 goroutines sharing
// the index (run under -race via `make race`).
func TestDifferentialSearch(t *testing.T) {
	idx := differentialIndex()
	queries := differentialQueries(t)
	check := func(t *testing.T) {
		for _, q := range queries {
			got := idx.SearchBytes(q.Compile(), nil)
			want := referenceSearch(idx, q)
			if !sameBanners(got, want) {
				t.Errorf("query %+v:\n  new: %d hits %v\n  ref: %d hits %v", q, len(got), got, len(want), want)
			}
		}
	}
	t.Run("serial", check)
	t.Run("workers-8", func(t *testing.T) {
		var wg sync.WaitGroup
		for w := 0; w < 8; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				check(t)
			}()
		}
		wg.Wait()
	})
}

// TestSearchBytesAppends pins the dst contract: results append after
// existing elements and only the appended region is sorted.
func TestSearchBytesAppends(t *testing.T) {
	idx := differentialIndex()
	q, _ := ParseQuery("netsweeper")
	cq := q.Compile()
	sentinel := Banner{Hostname: "sentinel"}
	out := idx.SearchBytes(cq, []Banner{sentinel})
	if len(out) < 2 || out[0].Hostname != "sentinel" {
		t.Fatalf("dst not preserved: %v", out)
	}
	if !sameBanners(out[1:], idx.SearchBytes(q.Compile(), nil)) {
		t.Fatalf("appended region differs from a fresh search")
	}
}

// TestZeroAllocSearchBytes pins 0 allocs/op for the compiled search on
// hit and miss paths once dst capacity is warm. CI runs this.
func TestZeroAllocSearchBytes(t *testing.T) {
	idx := differentialIndex()
	hitQ, _ := ParseQuery("netsweeper port:8080")
	missQ, _ := ParseQuery("nosuchkeyword")
	hit, miss := hitQ.Compile(), missQ.Compile()
	dst := make([]Banner, 0, 64)
	if r := idx.SearchBytes(hit, dst[:0]); len(r) == 0 {
		t.Fatal("hit query found nothing")
	}
	cases := []struct {
		name string
		cq   *CompiledQuery
	}{{"hit", hit}, {"miss", miss}}
	for _, tc := range cases {
		if n := testing.AllocsPerRun(200, func() {
			dst = idx.SearchBytes(tc.cq, dst[:0])
		}); n != 0 {
			t.Errorf("SearchBytes %s allocates %v/op, want 0", tc.name, n)
		}
	}
}
