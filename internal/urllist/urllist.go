// Package urllist provides the URL corpora of the study:
//
//   - the researcher-controlled test domains of §4 — "two random
//     (non-profane) words registered with the .info top-level domain
//     (e.g., starwasher.info)" carrying the Glype proxy script, or an
//     adult image for the Saudi pornography experiment (§4.3),
//   - the ONI testing lists of §5: a constant "global list" of
//     internationally relevant content and per-country "local lists",
//     with every URL assigned to one of 40 content categories under four
//     themes (political, social, Internet tools, conflict/security),
//   - a content directory describing what each simulated domain hosts, so
//     vendor classifiers can categorize by content like the real
//     classification pipelines do.
//
// All generation is deterministic from explicit seeds so campaigns and
// tables replay identically.
package urllist

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"sync"
)

// Kind describes what a simulated site hosts.
type Kind int

const (
	// Benign sites host innocuous placeholder content.
	Benign Kind = iota
	// GlypeProxy sites host the Glype web-proxy script (§4.3).
	GlypeProxy
	// AdultImage sites host one adult image plus a benign image used to
	// shield testers (§4.6).
	AdultImage
	// ListContent sites host the content of a research-list entry; the
	// research category travels in Profile.ResearchCategory.
	ListContent
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case Benign:
		return "benign"
	case GlypeProxy:
		return "glype-proxy"
	case AdultImage:
		return "adult-image"
	case ListContent:
		return "list-content"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Profile describes one domain's content.
type Profile struct {
	Domain string
	Kind   Kind
	// ResearchCategory is the ONI category code for ListContent sites.
	ResearchCategory string
	// Links are outbound hyperlink URLs the domain's pages carry, forming
	// the linked synthetic web the discovery crawler walks (see web.go).
	Links []string
}

// Directory maps domains to content profiles. It is the ground truth that
// vendor content classifiers consult. Safe for concurrent use.
type Directory struct {
	mu       sync.RWMutex
	profiles map[string]Profile
}

// NewDirectory returns an empty directory.
func NewDirectory() *Directory {
	return &Directory{profiles: make(map[string]Profile)}
}

// Add registers a profile (keyed by lowercase domain).
func (d *Directory) Add(p Profile) {
	d.mu.Lock()
	defer d.mu.Unlock()
	p.Domain = strings.ToLower(p.Domain)
	d.profiles[p.Domain] = p
}

// Lookup returns the profile for a domain.
func (d *Directory) Lookup(domain string) (Profile, bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	p, ok := d.profiles[strings.ToLower(domain)]
	return p, ok
}

// Word lists for test-domain generation: ordinary, non-profane English
// words, in the spirit of "starwasher.info".
var (
	genWordsA = []string{
		"star", "moon", "cloud", "river", "amber", "cedar", "copper", "dawn",
		"ember", "frost", "garden", "harbor", "island", "jade", "kite",
		"lantern", "meadow", "north", "ocean", "pearl", "quiet", "rain",
		"silver", "thunder", "umber", "violet", "willow", "yellow", "zephyr",
		"maple", "bright", "gentle", "swift", "calm", "golden",
	}
	genWordsB = []string{
		"washer", "runner", "keeper", "finder", "maker", "walker", "singer",
		"reader", "writer", "dreamer", "planter", "builder", "weaver",
		"painter", "sailor", "baker", "farmer", "fisher", "gardener",
		"hunter", "jumper", "dancer", "drifter", "wanderer", "watcher",
		"teller", "seeker", "turner", "carver", "catcher",
	}
)

// Generator produces deterministic researcher test domains.
type Generator struct {
	rng  *rand.Rand
	used map[string]bool
}

// NewGenerator returns a generator seeded for reproducibility.
func NewGenerator(seed int64) *Generator {
	return &Generator{rng: rand.New(rand.NewSource(seed)), used: make(map[string]bool)}
}

// Domain returns one fresh two-word .info domain.
func (g *Generator) Domain() string {
	for {
		a := genWordsA[g.rng.Intn(len(genWordsA))]
		b := genWordsB[g.rng.Intn(len(genWordsB))]
		d := a + b + ".info"
		if !g.used[d] {
			g.used[d] = true
			return d
		}
	}
}

// SyntheticDomain is the pure-function counterpart of Generator for
// derived worlds: it returns the deterministic two-word .info domain
// for index i under seed, derivable without generating domains 0..i-1
// (Generator must walk its RNG sequentially, which a world answering
// hosts in arbitrary order cannot do).
// Unlike Generator it does not guarantee uniqueness across indices;
// collisions are fine for the banner/decoy text it seasons.
func SyntheticDomain(seed uint64, i int) string {
	x := seed ^ uint64(i)*0x9e3779b97f4a7c15
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	a := genWordsA[x%uint64(len(genWordsA))]
	b := genWordsB[(x>>32)%uint64(len(genWordsB))]
	return a + b + ".info"
}

// Themes of the ONI category scheme (§5).
const (
	ThemePolitical = "political"
	ThemeSocial    = "social"
	ThemeTools     = "internet-tools"
	ThemeConflict  = "conflict-security"
)

// ResearchCategory is one of the 40 content categories of §5.
type ResearchCategory struct {
	Code  string
	Name  string
	Theme string
}

// Table-4 research category codes (the six columns of Table 4).
const (
	CatMediaFreedom       = "media-freedom"
	CatHumanRights        = "human-rights"
	CatPoliticalReform    = "political-reform"
	CatLGBT               = "lgbt"
	CatReligiousCriticism = "religious-criticism"
	CatMinorityRights     = "minority-groups-religions"
)

// Categories returns the 40-category scheme: 10 categories per theme. The
// paper names the scheme but not every member; the set here covers every
// category the paper references (the Table 4 columns, "gambling",
// "human rights") and fills the remainder with ONI-style categories.
func Categories() []ResearchCategory {
	return slices.Clone(categories)
}

// categories is the scheme Categories copies out; CategoryByCode reads it
// in place, so a lookup allocates nothing.
var categories = []ResearchCategory{
	// Political.
	{CatHumanRights, "Human Rights", ThemePolitical},
	{CatPoliticalReform, "Political Reform", ThemePolitical},
	{"opposition-parties", "Opposition Parties", ThemePolitical},
	{CatMediaFreedom, "Media Freedom / Independent Media", ThemePolitical},
	{"government-criticism", "Criticism of Government", ThemePolitical},
	{"foreign-relations", "Foreign Relations", ThemePolitical},
	{"womens-rights", "Women's Rights", ThemePolitical},
	{CatMinorityRights, "Minority Groups and Religions", ThemePolitical},
	{"political-satire", "Political Satire", ThemePolitical},
	{"elections", "Elections", ThemePolitical},
	// Social.
	{"pornography", "Pornography", ThemeSocial},
	{"gambling", "Gambling", ThemeSocial},
	{"alcohol-drugs", "Alcohol and Drugs", ThemeSocial},
	{CatLGBT, "Gay, Lesbian, Bisexual and Transgender", ThemeSocial},
	{"dating", "Dating", ThemeSocial},
	{"sex-education", "Sex Education", ThemeSocial},
	{CatReligiousCriticism, "Religious Criticism / Discussion", ThemeSocial},
	{"minority-faiths", "Minority Faiths", ThemeSocial},
	{"entertainment", "Entertainment", ThemeSocial},
	{"public-health", "Public Health", ThemeSocial},
	// Internet tools.
	{"anonymizers", "Anonymizers", ThemeTools},
	{"proxy-tools", "Web Proxies", ThemeTools},
	{"vpn", "VPN Services", ThemeTools},
	{"translation", "Translation Tools", ThemeTools},
	{"free-email", "Free Email", ThemeTools},
	{"search-engines", "Search Engines", ThemeTools},
	{"hosting", "Hosting and Blogging Platforms", ThemeTools},
	{"p2p", "Peer-to-Peer File Sharing", ThemeTools},
	{"voip", "Voice over IP", ThemeTools},
	{"circumvention-info", "Circumvention Information", ThemeTools},
	// Conflict and security.
	{"militant-groups", "Militant Groups", ThemeConflict},
	{"extremism", "Extremism", ThemeConflict},
	{"separatists", "Separatist Movements", ThemeConflict},
	{"conflict-news", "Conflict Reporting", ThemeConflict},
	{"weapons", "Weapons", ThemeConflict},
	{"hacking", "Hacking Tools", ThemeConflict},
	{"terrorism-analysis", "Terrorism Commentary", ThemeConflict},
	{"border-disputes", "Border Disputes", ThemeConflict},
	{"armed-opposition", "Armed Opposition", ThemeConflict},
	{"security-analysis", "Security Analysis", ThemeConflict},
}

// CategoryByCode returns the research category with the given code.
func CategoryByCode(code string) (ResearchCategory, bool) {
	for _, c := range categories {
		if c.Code == code {
			return c, true
		}
	}
	return ResearchCategory{}, false
}

// Entry is one URL on a testing list.
type Entry struct {
	URL      string
	Domain   string
	Category string // research category code
}

// List is a named URL testing list.
type List struct {
	Name    string
	Entries []Entry
}

// URLs returns the list's URLs in order.
func (l *List) URLs() []string {
	out := make([]string, len(l.Entries))
	for i, e := range l.Entries {
		out[i] = e.URL
	}
	return out
}

func entry(domain, category string) Entry {
	return Entry{URL: "http://" + domain + "/", Domain: domain, Category: category}
}

// GlobalList returns the internationally relevant testing list, constant
// for every country (§5): a representative site per research category.
func GlobalList() List {
	var entries []Entry
	for _, c := range Categories() {
		entries = append(entries, entry("global-"+c.Code+".org", c.Code))
	}
	// Categories central to the paper's findings get additional
	// well-known-site stand-ins.
	entries = append(entries,
		entry("worldpressherald.org", CatMediaFreedom),
		entry("rightswatch-intl.org", CatHumanRights),
		entry("rainbowalliance.org", CatLGBT),
		entry("securelyproxy.net", "proxy-tools"),
		entry("openanonymizer.net", "anonymizers"),
	)
	return List{Name: "global", Entries: entries}
}

// LocalList returns the locally relevant list for a country (§5: "designed
// for each country by regional experts and ... unique for each country").
// Unknown countries get an empty list.
func LocalList(country string) List {
	country = strings.ToUpper(country)
	mk := func(domains map[string]string) List {
		keys := make([]string, 0, len(domains))
		for d := range domains {
			keys = append(keys, d)
		}
		sort.Strings(keys)
		var entries []Entry
		for _, d := range keys {
			entries = append(entries, entry(d, domains[d]))
		}
		return List{Name: "local-" + strings.ToLower(country), Entries: entries}
	}
	switch country {
	case "AE":
		return mk(map[string]string{
			"uae-reform-now.org":      CatPoliticalReform,
			"emirates-monitor.org":    CatMediaFreedom,
			"gulf-lgbt-network.org":   CatLGBT,
			"islam-debate-forum.org":  CatReligiousCriticism,
			"uaedetaineewatch.org":    CatHumanRights,
			"shia-community-gulf.org": CatMinorityRights,
		})
	case "QA":
		return mk(map[string]string{
			"qatar-voices.org":        CatPoliticalReform,
			"doha-free-press.org":     CatMediaFreedom,
			"qatari-lgbt-forum.org":   CatLGBT,
			"gulf-religion-talk.org":  CatReligiousCriticism,
			"migrant-rights-doha.org": CatHumanRights,
		})
	case "SA":
		return mk(map[string]string{
			"saudi-reform-front.org": CatPoliticalReform,
			"riyadh-uncensored.org":  CatMediaFreedom,
			"saudi-lgbt-voices.org":  CatLGBT,
			"quran-questions.org":    CatReligiousCriticism,
			"shia-rights-ksa.org":    CatMinorityRights,
			"saudi-rights-watch.org": CatHumanRights,
		})
	case "YE":
		return mk(map[string]string{
			"yemen-change-now.org":    CatPoliticalReform,
			"sanaa-independent.org":   CatMediaFreedom,
			"yemeni-rights-forum.org": CatHumanRights,
			"aden-free-voices.org":    CatLGBT,
			"southern-movement.org":   "separatists",
		})
	default:
		return List{Name: "local-" + strings.ToLower(country)}
	}
}
