package urllist

import (
	"strings"
	"testing"
	"testing/quick"

	"filtermap/internal/httpwire"
)

func TestGeneratorDeterministic(t *testing.T) {
	g1 := NewGenerator(42)
	g2 := NewGenerator(42)
	for i := 0; i < 20; i++ {
		a, b := g1.Domain(), g2.Domain()
		if a != b {
			t.Fatalf("same seed diverged at %d: %q vs %q", i, a, b)
		}
	}
}

func TestGeneratorDifferentSeedsDiffer(t *testing.T) {
	g1, g2 := NewGenerator(1), NewGenerator(2)
	same := 0
	for i := 0; i < 10; i++ {
		if g1.Domain() == g2.Domain() {
			same++
		}
	}
	if same == 10 {
		t.Fatal("different seeds produced identical sequences")
	}
}

func TestGeneratorNoDuplicates(t *testing.T) {
	g := NewGenerator(7)
	seen := make(map[string]bool)
	for i := 0; i < 200; i++ {
		d := g.Domain()
		if seen[d] {
			t.Fatalf("duplicate domain %q", d)
		}
		seen[d] = true
	}
}

func TestGeneratorDomainShape(t *testing.T) {
	// §4.3: "two random (non-profane) words registered with the .info
	// top-level domain (e.g., starwasher.info)".
	g := NewGenerator(99)
	f := func(n uint8) bool {
		d := g.Domain()
		if !strings.HasSuffix(d, ".info") {
			return false
		}
		base := strings.TrimSuffix(d, ".info")
		return base != "" && !strings.Contains(base, ".") && strings.ToLower(base) == base
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestCategoriesSchemeShape(t *testing.T) {
	cats := Categories()
	if len(cats) != 40 {
		t.Fatalf("scheme has %d categories, want 40 (§5)", len(cats))
	}
	themes := map[string]int{}
	codes := map[string]bool{}
	for _, c := range cats {
		if codes[c.Code] {
			t.Fatalf("duplicate category code %q", c.Code)
		}
		codes[c.Code] = true
		themes[c.Theme]++
		if c.Name == "" {
			t.Fatalf("category %q has no display name", c.Code)
		}
	}
	if len(themes) != 4 {
		t.Fatalf("scheme has %d themes, want 4 (§5)", len(themes))
	}
	for theme, n := range themes {
		if n != 10 {
			t.Errorf("theme %q has %d categories, want 10", theme, n)
		}
	}
}

func TestCategoriesIncludeTable4Columns(t *testing.T) {
	for _, code := range []string{
		CatMediaFreedom, CatHumanRights, CatPoliticalReform,
		CatLGBT, CatReligiousCriticism, CatMinorityRights,
	} {
		if _, ok := CategoryByCode(code); !ok {
			t.Errorf("Table 4 column %q missing from scheme", code)
		}
	}
	if _, ok := CategoryByCode("nonexistent"); ok {
		t.Error("found nonexistent category")
	}
}

func TestGlobalListCoversEveryCategory(t *testing.T) {
	list := GlobalList()
	byCat := make(map[string]int)
	for _, e := range list.Entries {
		byCat[e.Category]++
	}
	for _, c := range Categories() {
		if byCat[c.Code] == 0 {
			t.Errorf("global list has no entry for category %q", c.Code)
		}
	}
	if len(list.URLs()) != len(list.Entries) {
		t.Fatal("URLs() length mismatch")
	}
	for _, e := range list.Entries {
		if !strings.HasPrefix(e.URL, "http://") || e.Domain == "" {
			t.Errorf("malformed entry %+v", e)
		}
	}
}

func TestLocalListsPerCountry(t *testing.T) {
	for _, cc := range []string{"AE", "QA", "SA", "YE"} {
		list := LocalList(cc)
		if len(list.Entries) == 0 {
			t.Errorf("local list for %s is empty", cc)
		}
		if list.Name != "local-"+strings.ToLower(cc) {
			t.Errorf("list name = %q", list.Name)
		}
	}
	if len(LocalList("ZZ").Entries) != 0 {
		t.Error("unknown country returned entries")
	}
	// Lists are unique per country (§5).
	ae := LocalList("AE")
	qa := LocalList("QA")
	for _, a := range ae.Entries {
		for _, q := range qa.Entries {
			if a.Domain == q.Domain {
				t.Errorf("domain %q shared between AE and QA local lists", a.Domain)
			}
		}
	}
}

func TestLocalListDeterministicOrder(t *testing.T) {
	a := LocalList("YE")
	b := LocalList("YE")
	for i := range a.Entries {
		if a.Entries[i] != b.Entries[i] {
			t.Fatal("local list order not deterministic")
		}
	}
}

func TestDirectory(t *testing.T) {
	d := NewDirectory()
	d.Add(Profile{Domain: "Starwasher.INFO", Kind: GlypeProxy})
	p, ok := d.Lookup("starwasher.info")
	if !ok || p.Kind != GlypeProxy {
		t.Fatalf("Lookup = %+v, %v", p, ok)
	}
	if _, ok := d.Lookup("other.info"); ok {
		t.Fatal("found unregistered domain")
	}
	if len(d.profiles) != 1 {
		t.Fatalf("profiles = %v", d.profiles)
	}
}

func request(t *testing.T, rawurl string) *httpwire.Request {
	t.Helper()
	req, err := httpwire.NewRequest("GET", rawurl)
	if err != nil {
		t.Fatal(err)
	}
	return req
}

func TestGlypeHandlerServesProxyPage(t *testing.T) {
	h := Handler(Profile{Domain: "starwasher.info", Kind: GlypeProxy})
	resp := h.Handle(request(t, "http://starwasher.info/"))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	body := string(resp.Body)
	if !strings.Contains(body, "Glype") || !strings.Contains(body, "/browse.php") {
		t.Fatalf("glype page missing markers: %s", body)
	}
	// The relay endpoint answers too.
	resp = h.Handle(request(t, "http://starwasher.info/browse.php?u=http://x/"))
	if resp.StatusCode != 200 {
		t.Fatalf("browse.php status = %d", resp.StatusCode)
	}
	// Unknown paths 404.
	if resp := h.Handle(request(t, "http://starwasher.info/nope")); resp.StatusCode != 404 {
		t.Fatalf("unknown path status = %d", resp.StatusCode)
	}
}

func TestAdultImageHandlerShieldsTesters(t *testing.T) {
	h := Handler(Profile{Domain: "amberrunner.info", Kind: AdultImage})
	// The benign image is a separate, innocuous resource (§4.6).
	resp := h.Handle(request(t, "http://amberrunner.info"+BenignImagePath))
	if resp.StatusCode != 200 || resp.Header.Get("Content-Type") != "image/png" {
		t.Fatalf("benign image = %d %s", resp.StatusCode, resp.Header.Get("Content-Type"))
	}
	if strings.Contains(string(resp.Body), "ADULT") {
		t.Fatal("benign image contains adult marker")
	}
	// The index references the adult content.
	resp = h.Handle(request(t, "http://amberrunner.info/"))
	if !strings.Contains(string(resp.Body), "adult-image-content-placeholder") {
		t.Fatal("index missing adult placeholder")
	}
}

func TestListContentHandler(t *testing.T) {
	h := Handler(Profile{Domain: "global-lgbt.org", Kind: ListContent, ResearchCategory: CatLGBT})
	resp := h.Handle(request(t, "http://global-lgbt.org/"))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if !strings.Contains(string(resp.Body), "Article 19") {
		t.Fatal("list content page missing rights reference")
	}
}

func TestBenignHandler(t *testing.T) {
	h := Handler(Profile{Domain: "plain.example", Kind: Benign})
	resp := h.Handle(request(t, "http://plain.example/"))
	if resp.StatusCode != 200 {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestKindString(t *testing.T) {
	cases := map[Kind]string{
		Benign: "benign", GlypeProxy: "glype-proxy",
		AdultImage: "adult-image", ListContent: "list-content",
		Kind(9): "Kind(9)",
	}
	for k, want := range cases {
		if k.String() != want {
			t.Errorf("%d.String() = %q", int(k), k.String())
		}
	}
}
