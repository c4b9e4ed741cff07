package scanner

import (
	"net/netip"
	"testing"
	"unsafe"
)

// TestIndexInternsDuplicateBanners proves that two banners carrying
// byte-identical template strings share backing storage after Add —
// the property that keeps nation-scale index memory proportional to
// distinct templates, not host count.
func TestIndexInternsDuplicateBanners(t *testing.T) {
	idx := NewIndex()
	mk := func(last byte) Banner {
		return Banner{
			Addr:        netip.AddrFrom4([4]byte{240, 0, 0, last}),
			Port:        80,
			StatusLine:  string([]byte("HTTP/1.1 200 OK")),
			RawHead:     string([]byte("HTTP/1.1 200 OK\r\nServer: synth\r\n")),
			BodyExcerpt: string([]byte("<html><title>It works</title></html>")),
		}
	}
	idx.Add(mk(1))
	idx.Add(mk(2))

	all := idx.All()
	if len(all) != 2 {
		t.Fatalf("Len = %d, want 2", len(all))
	}
	if p0, p1 := unsafe.StringData(all[0].RawHead), unsafe.StringData(all[1].RawHead); p0 != p1 {
		t.Fatal("RawHead not interned: distinct backing arrays for identical values")
	}
	if p0, p1 := unsafe.StringData(all[0].BodyExcerpt), unsafe.StringData(all[1].BodyExcerpt); p0 != p1 {
		t.Fatal("BodyExcerpt not interned")
	}
	// The cached search text must also be shared.
	idx.mu.RLock()
	defer idx.mu.RUnlock()
	if len(idx.texts) != 1 || len(idx.texts[0].banners) != 2 {
		t.Fatal("cached search text not shared between identical banners")
	}
}

// TestIndexSearchAfterInterning guards that interning does not change
// search results.
func TestIndexSearchAfterInterning(t *testing.T) {
	idx := NewIndex()
	idx.Add(Banner{Addr: netip.MustParseAddr("240.0.0.1"), Port: 8080, RawHead: "HTTP/1.1 302 Found\r\n", BodyExcerpt: "/webadmin/ console"})
	idx.Add(Banner{Addr: netip.MustParseAddr("240.0.0.2"), Port: 80, RawHead: "HTTP/1.1 200 OK\r\n", BodyExcerpt: "plain page"})

	hits, err := idx.SearchString("8080/webadmin/")
	if err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0].Port != 8080 {
		t.Fatalf("hits = %+v, want the one 8080 banner", hits)
	}
}
