package categorydb

import (
	"fmt"
	"net/netip"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"filtermap/internal/simclock"
)

func newTestDB(t *testing.T) (*DB, *simclock.Manual) {
	t.Helper()
	clock := simclock.NewManual(time.Time{})
	db := New("TestVendor", clock)
	db.AddCategory(Category{Code: "pornography", Name: "Pornography", Number: 23, Theme: "social"})
	db.AddCategory(Category{Code: "proxy", Name: "Proxy Anonymizer", Number: 24, Theme: "internet-tools"})
	return db, clock
}

func TestAddDomainAndLookup(t *testing.T) {
	db, _ := newTestDB(t)
	if err := db.AddDomain("example.com", "pornography"); err != nil {
		t.Fatalf("AddDomain: %v", err)
	}
	cat, ok := db.Lookup("example.com")
	if !ok || cat != "pornography" {
		t.Fatalf("Lookup = %q, %v", cat, ok)
	}
}

func TestAddDomainUnknownCategory(t *testing.T) {
	db, _ := newTestDB(t)
	if err := db.AddDomain("example.com", "nope"); err == nil {
		t.Fatal("unknown category accepted")
	}
}

func TestAddDomainEmpty(t *testing.T) {
	db, _ := newTestDB(t)
	if err := db.AddDomain("", "pornography"); err == nil {
		t.Fatal("empty domain accepted")
	}
}

func TestLookupSuffixMatching(t *testing.T) {
	db, _ := newTestDB(t)
	db.AddDomain("example.com", "pornography") //nolint:errcheck // category exists
	cases := map[string]bool{
		"example.com":      true,
		"www.example.com":  true,
		"a.b.example.com":  true,
		"EXAMPLE.COM":      true,
		"notexample.com":   false, // not a dot-boundary suffix
		"example.com.evil": false,
		"other.com":        false,
	}
	for domain, want := range cases {
		_, ok := db.Lookup(domain)
		if ok != want {
			t.Errorf("Lookup(%q) found=%v, want %v", domain, ok, want)
		}
	}
}

func TestMoreSpecificSuffixWins(t *testing.T) {
	db, _ := newTestDB(t)
	db.AddDomain("example.com", "pornography") //nolint:errcheck // category exists
	db.AddDomain("blog.example.com", "proxy")  //nolint:errcheck // category exists
	cat, ok := db.Lookup("blog.example.com")
	if !ok || cat != "proxy" {
		t.Fatalf("specific lookup = %q, want proxy", cat)
	}
	cat, _ = db.Lookup("www.example.com")
	if cat != "pornography" {
		t.Fatalf("general lookup = %q, want pornography", cat)
	}
}

func TestSubmitAcceptedBecomesEffectiveAfterReview(t *testing.T) {
	db, clock := newTestDB(t)
	ip := netip.MustParseAddr("192.0.2.1")
	sub, err := db.Submit("http://fresh.info/", "pornography", ip, "a@b.example")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sub.State != Accepted {
		t.Fatalf("state = %v, want Accepted", sub.State)
	}
	if _, ok := db.Lookup("fresh.info"); ok {
		t.Fatal("domain categorized before review delay elapsed")
	}
	clock.Advance(db.ReviewDelay)
	cat, ok := db.Lookup("fresh.info")
	if !ok || cat != "pornography" {
		t.Fatalf("after review Lookup = %q, %v", cat, ok)
	}
}

func TestSubmitUnknownCategoryWithoutClassifierLandsUnrated(t *testing.T) {
	db, clock := newTestDB(t)
	sub, err := db.Submit("http://fresh.info/", "not-a-category", netip.Addr{}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sub.State != Unrated {
		t.Fatalf("state = %v, want Unrated", sub.State)
	}
	clock.Advance(simclock.Days(10))
	if _, ok := db.Lookup("fresh.info"); ok {
		t.Fatal("unrated submission became effective")
	}
}

func TestSubmitClassifierDecidesWhenNoCategoryRequested(t *testing.T) {
	db, clock := newTestDB(t)
	db.SetClassifier(ClassifierFunc(func(domain, url string) (string, bool) {
		if strings.HasSuffix(domain, ".info") {
			return "proxy", true
		}
		return "", false
	}))
	sub, err := db.Submit("http://glype.info/", "", netip.Addr{}, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sub.State != Accepted || sub.Category != "proxy" {
		t.Fatalf("classifier submission = %v/%q", sub.State, sub.Category)
	}
	clock.Advance(db.ReviewDelay)
	if cat, _ := db.Lookup("glype.info"); cat != "proxy" {
		t.Fatalf("Lookup = %q, want proxy", cat)
	}
}

func TestSubmissionFilterDisregards(t *testing.T) {
	db, clock := newTestDB(t)
	badIP := netip.MustParseAddr("128.100.50.10")
	db.SetSubmissionFilter(func(s Submission) bool { return s.SubmitterIP != badIP })

	sub, err := db.Submit("http://fresh.info/", "pornography", badIP, "")
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if sub.State != Disregarded {
		t.Fatalf("state = %v, want Disregarded", sub.State)
	}
	clock.Advance(simclock.Days(10))
	if _, ok := db.Lookup("fresh.info"); ok {
		t.Fatal("disregarded submission became effective")
	}

	// A different submitter is accepted.
	sub2, _ := db.Submit("http://fresh2.info/", "pornography", netip.MustParseAddr("185.38.7.7"), "")
	if sub2.State != Accepted {
		t.Fatalf("state = %v, want Accepted", sub2.State)
	}
}

func TestReviewQueueStagger(t *testing.T) {
	db, _ := newTestDB(t)
	var decided []time.Time
	for i := 0; i < 4; i++ {
		sub, err := db.Submit(fmt.Sprintf("http://s%d.info/", i), "pornography", netip.Addr{}, "")
		if err != nil {
			t.Fatal(err)
		}
		decided = append(decided, sub.DecidedAt)
	}
	for i := 1; i < len(decided); i++ {
		if got := decided[i].Sub(decided[i-1]); got != db.ReviewStagger {
			t.Fatalf("stagger between submission %d and %d = %v, want %v", i-1, i, got, db.ReviewStagger)
		}
	}
}

func TestQueueDrainsAndStaggerResets(t *testing.T) {
	db, clock := newTestDB(t)
	db.Submit("http://a.info/", "pornography", netip.Addr{}, "") //nolint:errcheck // valid
	clock.Advance(db.ReviewDelay + db.ReviewStagger + time.Hour)
	sub, _ := db.Submit("http://b.info/", "pornography", netip.Addr{}, "")
	want := clock.Now().Add(db.ReviewDelay)
	if !sub.DecidedAt.Equal(want) {
		t.Fatalf("drained-queue DecidedAt = %v, want %v", sub.DecidedAt, want)
	}
}

func TestQueueAutoClassifiesOnce(t *testing.T) {
	db, clock := newTestDB(t)
	calls := 0
	db.SetClassifier(ClassifierFunc(func(domain, url string) (string, bool) {
		calls++
		return "proxy", true
	}))
	db.QueueAuto("fresh.info", "http://fresh.info/")
	db.QueueAuto("fresh.info", "http://fresh.info/") // repeat access
	if calls != 1 {
		t.Fatalf("classifier called %d times, want 1", calls)
	}
	clock.Advance(db.ReviewDelay)
	if cat, _ := db.Lookup("fresh.info"); cat != "proxy" {
		t.Fatalf("auto-queued Lookup = %q, want proxy", cat)
	}
}

func TestQueueAutoSkipsCategorizedDomains(t *testing.T) {
	db, _ := newTestDB(t)
	db.AddDomain("known.com", "pornography") //nolint:errcheck // category exists
	called := false
	db.SetClassifier(ClassifierFunc(func(domain, url string) (string, bool) {
		called = true
		return "proxy", true
	}))
	db.QueueAuto("known.com", "http://known.com/")
	if called {
		t.Fatal("classifier consulted for an already-categorized domain")
	}
}

func TestQueueAutoWithoutClassifierIsNoop(t *testing.T) {
	db, clock := newTestDB(t)
	db.QueueAuto("fresh.info", "http://fresh.info/")
	clock.Advance(simclock.Days(10))
	if _, ok := db.Lookup("fresh.info"); ok {
		t.Fatal("no-classifier auto queue categorized a domain")
	}
}

func TestLookupAtTimeTravel(t *testing.T) {
	db, clock := newTestDB(t)
	start := clock.Now()
	db.Submit("http://fresh.info/", "pornography", netip.Addr{}, "") //nolint:errcheck // valid
	clock.Advance(simclock.Days(10))
	// As of submission time, not categorized.
	if _, ok := db.LookupAt("fresh.info", start); ok {
		t.Fatal("LookupAt(start) found a future entry")
	}
	// As of now, categorized.
	if _, ok := db.LookupAt("fresh.info", clock.Now()); !ok {
		t.Fatal("LookupAt(now) missed a decided entry")
	}
}

func TestSubmissionStatus(t *testing.T) {
	db, _ := newTestDB(t)
	sub, _ := db.Submit("http://a.info/", "pornography", netip.Addr{}, "x@y.example")
	got, ok := db.SubmissionStatus(sub.ID)
	if !ok || got.URL != "http://a.info/" || got.SubmitterEmail != "x@y.example" {
		t.Fatalf("SubmissionStatus = %+v, %v", got, ok)
	}
	if _, ok := db.SubmissionStatus(9999); ok {
		t.Fatal("found nonexistent submission")
	}
}

func TestCategoryByNumber(t *testing.T) {
	db, _ := newTestDB(t)
	c, ok := db.CategoryByNumber(23)
	if !ok || c.Code != "pornography" {
		t.Fatalf("CategoryByNumber(23) = %+v, %v", c, ok)
	}
	if _, ok := db.CategoryByNumber(999); ok {
		t.Fatal("found nonexistent category number")
	}
}

func TestDecisionStateString(t *testing.T) {
	cases := map[DecisionState]string{
		Pending: "pending", Accepted: "accepted", Unrated: "unrated",
		Disregarded: "disregarded", DecisionState(42): "DecisionState(42)",
	}
	for s, want := range cases {
		if got := s.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", int(s), got, want)
		}
	}
}

func TestDomainOfURL(t *testing.T) {
	cases := map[string]string{
		"http://example.com/path":          "example.com",
		"https://example.com:8080/p?q=1":   "example.com",
		"example.com":                      "example.com",
		"http://user@example.com/":         "example.com",
		"http://example.com":               "example.com",
		"example.com/path/deep":            "example.com",
		"http://starwasher.info/index.php": "starwasher.info",
	}
	for in, want := range cases {
		if got := DomainOfURL(in); got != want {
			t.Errorf("DomainOfURL(%q) = %q, want %q", in, got, want)
		}
	}
}

func TestSuffixesProperty(t *testing.T) {
	// Every suffix list starts with the input and each next element is a
	// dot-boundary suffix of the previous.
	f := func(labels []uint8) bool {
		if len(labels) == 0 || len(labels) > 6 {
			return true
		}
		parts := make([]string, len(labels))
		for i, l := range labels {
			parts[i] = fmt.Sprintf("l%d", l%10)
		}
		domain := strings.Join(parts, ".")
		sfx := suffixes(domain)
		if len(sfx) != len(parts) {
			return false
		}
		if sfx[0] != domain {
			return false
		}
		for i := 1; i < len(sfx); i++ {
			if !strings.HasSuffix(sfx[i-1], "."+sfx[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLookupNeverPanicsProperty(t *testing.T) {
	db, _ := newTestDB(t)
	db.AddDomain("example.com", "pornography") //nolint:errcheck // category exists
	f := func(s string) bool {
		db.Lookup(s) // must not panic, any result is fine
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentSubmitAndLookup(t *testing.T) {
	db, clock := newTestDB(t)
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 50; i++ {
			db.Submit(fmt.Sprintf("http://c%d.info/", i), "pornography", netip.Addr{}, "") //nolint:errcheck // valid
		}
	}()
	for i := 0; i < 50; i++ {
		db.Lookup("c1.info")
		db.LookupAt("c2.info", clock.Now())
	}
	<-done
}
