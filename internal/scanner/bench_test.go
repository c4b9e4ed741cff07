package scanner

import (
	"fmt"
	"net/netip"
	"testing"
)

func benchIndex(b *testing.B, n int) *Index {
	b.Helper()
	idx := NewIndex()
	base := netip.MustParseAddr("10.0.0.0")
	a := base
	for i := 0; i < n; i++ {
		a = a.Next()
		raw := fmt.Sprintf("HTTP/1.1 200 OK\r\nServer: host-%d\r\nContent-Type: text/html\r\n", i)
		if i%100 == 0 {
			raw = "HTTP/1.1 200 OK\r\nServer: Apache (Netsweeper WebAdmin)\r\n"
		}
		idx.Add(Banner{
			Addr:     a,
			Port:     8080,
			Hostname: fmt.Sprintf("h%d.example", i),
			Country:  "US",
			RawHead:  raw,
		})
	}
	return idx
}

func BenchmarkSearchKeyword(b *testing.B) {
	idx := benchIndex(b, 10000)
	q, _ := ParseQuery("netsweeper")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if hits := idx.SearchBytes(q.Compile(), nil); len(hits) != 100 {
			b.Fatalf("hits = %d", len(hits))
		}
	}
}

func BenchmarkSearchWithFilters(b *testing.B) {
	idx := benchIndex(b, 10000)
	q, _ := ParseQuery("netsweeper country:US port:8080")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		idx.SearchBytes(q.Compile(), nil)
	}
}

// BenchmarkIndexSearch is the headline banner-search cost: the Table 2
// style keyword fan-out (bare keyword, quoted phrase with a country
// filter, port-qualified path) over a 10k-banner index.
// BENCH_classify.json tracks it.
func BenchmarkIndexSearch(b *testing.B) {
	idx := benchIndex(b, 10000)
	queries := make([]Query, 0, 3)
	for _, s := range []string{
		"netsweeper",
		`"netsweeper webadmin" country:US`,
		"8080/webadmin port:8080",
	} {
		q, err := ParseQuery(s)
		if err != nil {
			b.Fatal(err)
		}
		queries = append(queries, q)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hits := 0
		for _, q := range queries {
			hits += len(idx.SearchBytes(q.Compile(), nil))
		}
		if hits == 0 {
			b.Fatal("no hits")
		}
	}
}

func BenchmarkParseQuery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := ParseQuery(`"mcafee web gateway" country:sa port:8080`); err != nil {
			b.Fatal(err)
		}
	}
}
