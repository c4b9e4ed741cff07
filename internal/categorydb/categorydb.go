// Package categorydb implements a vendor URL-categorization database: the
// component §2.1 describes ("a database of pre-categorized URLs ... and a
// subscription/update component to push newly categorized URLs to the
// product's database") and §4.2 exploits ("many URL filters provide a
// mechanism for users to submit sites that should be blocked").
//
// One DB instance represents one vendor's master database (e.g. McAfee's
// SmartFilter database, shared by the Saudi and UAE deployments in §4.3).
// All state transitions are deterministic functions of a simclock.Clock:
// a submission made at time T becomes effective at T + review delay +
// queue stagger, so campaigns replay identically.
//
// Deployments do not read the master database directly; they hold a
// SyncView with a sync schedule, reproducing the update-propagation lag
// that yields Table 3's 5/6 result at Du.
package categorydb

import (
	"errors"
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
	"time"

	"filtermap/internal/simclock"
)

// Category is one entry in a vendor's taxonomy.
type Category struct {
	// Code is the stable identifier used in policies, e.g. "pornography".
	Code string
	// Name is the vendor's display name, e.g. "Pornography".
	Name string
	// Number is the vendor's numeric id where one exists (Netsweeper
	// category numbers, e.g. 23 for pornography).
	Number int
	// Theme groups categories for characterization (§5): "political",
	// "social", "internet-tools", "conflict-security", or "" for
	// vendor-internal categories.
	Theme string
}

// Decision states for submissions.
type DecisionState int

const (
	// Pending submissions have not yet been reviewed.
	Pending DecisionState = iota
	// Accepted submissions were categorized as requested (or as the
	// vendor's classifier decided).
	Accepted
	// Unrated submissions were reviewed but left uncategorized — the
	// vendor's reviewer could not or chose not to classify the site.
	Unrated
	// Disregarded submissions were silently dropped by an evasion filter
	// (Table 5: "vendors may identify and disregard our submissions").
	Disregarded
)

// String implements fmt.Stringer.
func (d DecisionState) String() string {
	switch d {
	case Pending:
		return "pending"
	case Accepted:
		return "accepted"
	case Unrated:
		return "unrated"
	case Disregarded:
		return "disregarded"
	default:
		return fmt.Sprintf("DecisionState(%d)", int(d))
	}
}

// Submission is one user-submitted site (§4.2). Submitter metadata exists
// so evasion filters can discriminate on it — exactly what Table 5
// anticipates vendors might do.
type Submission struct {
	ID                int
	URL               string
	RequestedCategory string
	SubmitterIP       netip.Addr
	SubmitterEmail    string

	// DecidedAt is when the review completes and the entry becomes
	// effective in the master database.
	DecidedAt time.Time
	State     DecisionState
	// Category is the category assigned on acceptance.
	Category string
}

// SubmissionFilter lets a vendor silently drop submissions. Returning
// false disregards the submission.
type SubmissionFilter func(Submission) bool

// Classifier decides a category from site identity alone, modelling the
// vendor's content-inspection pipeline. It backs Netsweeper's automatic
// categorization queue (§4.4: sites accessed in-country are "queued for
// categorization") and test-a-site verification.
type Classifier interface {
	Classify(domain, url string) (category string, ok bool)
}

// ClassifierFunc adapts a function to Classifier.
type ClassifierFunc func(domain, url string) (string, bool)

// Classify implements Classifier.
func (f ClassifierFunc) Classify(domain, url string) (string, bool) { return f(domain, url) }

// Errors.
var (
	ErrUnknownCategory = errors.New("categorydb: unknown category")
	ErrEmptyDomain     = errors.New("categorydb: empty domain")
)

// DB is one vendor's master categorization database.
type DB struct {
	name  string
	clock simclock.Clock

	// ReviewDelay is the base time from submission to effectiveness
	// (paper: sites became blocked "within a few days" / "after four
	// days").
	ReviewDelay time.Duration
	// ReviewStagger spaces out decisions for submissions that arrive
	// together, modelling a serial human review queue.
	ReviewStagger time.Duration

	mu          sync.RWMutex
	categories  map[string]Category
	base        map[string]string // domain suffix -> category code
	decided     []timedEntry      // effective-dated additions, kept sorted
	submissions []*Submission
	nextSubID   int
	filter      SubmissionFilter
	classifier  Classifier
	// autoQueued tracks domains already queued so repeat accesses do not
	// re-queue.
	autoQueued map[string]bool
}

type timedEntry struct {
	domain      string
	category    string
	effectiveAt time.Time
}

// New creates a database named for its vendor. Review delay defaults to
// 3 days, stagger to 6 hours.
func New(name string, clock simclock.Clock) *DB {
	if clock == nil {
		clock = simclock.System{}
	}
	return &DB{
		name:          name,
		clock:         clock,
		ReviewDelay:   simclock.Days(3),
		ReviewStagger: 6 * time.Hour,
		categories:    make(map[string]Category),
		base:          make(map[string]string),
		autoQueued:    make(map[string]bool),
	}
}

// Name returns the vendor database name.
func (db *DB) Name() string { return db.name }

// AddCategory registers a taxonomy entry.
func (db *DB) AddCategory(c Category) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.categories[c.Code] = c
}

// Categories returns the taxonomy sorted by code.
func (db *DB) Categories() []Category {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Category, 0, len(db.categories))
	for _, c := range db.categories {
		out = append(out, c)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Code < out[j].Code })
	return out
}

// Category returns the taxonomy entry for code.
func (db *DB) Category(code string) (Category, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	c, ok := db.categories[code]
	return c, ok
}

// CategoryByNumber returns the taxonomy entry with the given vendor number.
func (db *DB) CategoryByNumber(n int) (Category, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, c := range db.categories {
		if c.Number == n {
			return c, true
		}
	}
	return Category{}, false
}

// SetSubmissionFilter installs an evasion filter (nil removes it).
func (db *DB) SetSubmissionFilter(f SubmissionFilter) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.filter = f
}

// SetClassifier installs the vendor's content classifier.
func (db *DB) SetClassifier(c Classifier) {
	db.mu.Lock()
	defer db.mu.Unlock()
	db.classifier = c
}

// AddDomain inserts a pre-categorized domain (the vendor's shipped
// database).
func (db *DB) AddDomain(domain, category string) error {
	domain = normalizeDomain(domain)
	if domain == "" {
		return ErrEmptyDomain
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, ok := db.categories[category]; !ok {
		return fmt.Errorf("%w: %q", ErrUnknownCategory, category)
	}
	db.base[domain] = category
	return nil
}

// Submit files a user submission and returns it with its decision
// schedule filled in. The decision itself is deterministic: accepted with
// the requested category unless an evasion filter drops it or the
// requested category is unknown (then the classifier, if any, decides;
// otherwise the submission lands Unrated).
func (db *DB) Submit(url, requestedCategory string, ip netip.Addr, email string) (*Submission, error) {
	domain := normalizeDomain(DomainOfURL(url))
	if domain == "" {
		return nil, ErrEmptyDomain
	}
	now := db.clock.Now()
	db.mu.Lock()
	defer db.mu.Unlock()

	db.nextSubID++
	sub := &Submission{
		ID:                db.nextSubID,
		URL:               url,
		RequestedCategory: requestedCategory,
		SubmitterIP:       ip,
		SubmitterEmail:    email,
	}

	// Queue position among not-yet-decided submissions determines stagger.
	queueLen := 0
	for _, s := range db.submissions {
		if s.State == Pending || s.DecidedAt.After(now) {
			queueLen++
		}
	}
	sub.DecidedAt = now.Add(db.ReviewDelay + time.Duration(queueLen)*db.ReviewStagger)

	switch {
	case db.filter != nil && !db.filter(*sub):
		sub.State = Disregarded
	case db.hasCategoryLocked(requestedCategory):
		sub.State = Accepted
		sub.Category = requestedCategory
	case db.classifier != nil:
		if cat, ok := db.classifier.Classify(domain, url); ok && db.hasCategoryLocked(cat) {
			sub.State = Accepted
			sub.Category = cat
		} else {
			sub.State = Unrated
		}
	default:
		sub.State = Unrated
	}

	db.submissions = append(db.submissions, sub)
	if sub.State == Accepted {
		db.insertDecidedLocked(timedEntry{domain: domain, category: sub.Category, effectiveAt: sub.DecidedAt})
	}
	cp := *sub
	return &cp, nil
}

func (db *DB) hasCategoryLocked(code string) bool {
	_, ok := db.categories[code]
	return ok
}

func (db *DB) insertDecidedLocked(e timedEntry) {
	db.decided = append(db.decided, e)
	sort.Slice(db.decided, func(i, j int) bool {
		return db.decided[i].effectiveAt.Before(db.decided[j].effectiveAt)
	})
}

// QueueAuto files an automatic categorization of an accessed, currently
// uncategorized URL (Netsweeper's queue, §4.4). The vendor's classifier
// decides the category; domains it cannot classify are ignored. Each
// domain is queued at most once.
func (db *DB) QueueAuto(domain, url string) {
	domain = normalizeDomain(domain)
	if domain == "" {
		return
	}
	now := db.clock.Now()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.classifier == nil || db.autoQueued[domain] {
		return
	}
	db.autoQueued[domain] = true
	if _, ok := db.lookupLocked(domain, now); ok {
		return
	}
	cat, ok := db.classifier.Classify(domain, url)
	if !ok || !db.hasCategoryLocked(cat) {
		return
	}
	db.insertDecidedLocked(timedEntry{domain: domain, category: cat, effectiveAt: now.Add(db.ReviewDelay)})
}

// LookupAt returns the category of domain as of time at, using
// longest-suffix matching on dot boundaries (blocking is at hostname
// granularity, per §4.6, but vendors categorize whole registered domains).
func (db *DB) LookupAt(domain string, at time.Time) (string, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.lookupLocked(normalizeDomain(domain), at)
}

// Lookup returns the category of domain as of the current clock time.
func (db *DB) Lookup(domain string) (string, bool) {
	return db.LookupAt(domain, db.clock.Now())
}

func (db *DB) lookupLocked(domain string, at time.Time) (string, bool) {
	for _, candidate := range suffixes(domain) {
		// Dated entries take precedence over the shipped base at equal
		// specificity; more specific suffixes win overall.
		var found string
		var ok bool
		for _, e := range db.decided {
			if e.effectiveAt.After(at) {
				break
			}
			if e.domain == candidate {
				found, ok = e.category, true
			}
		}
		if ok {
			return found, true
		}
		if cat, ok := db.base[candidate]; ok {
			return cat, true
		}
	}
	return "", false
}

// Submissions returns copies of all submissions in id order.
func (db *DB) Submissions() []Submission {
	db.mu.RLock()
	defer db.mu.RUnlock()
	out := make([]Submission, len(db.submissions))
	for i, s := range db.submissions {
		out[i] = *s
	}
	return out
}

// SubmissionStatus returns the submission with the given id.
func (db *DB) SubmissionStatus(id int) (Submission, bool) {
	db.mu.RLock()
	defer db.mu.RUnlock()
	for _, s := range db.submissions {
		if s.ID == id {
			return *s, true
		}
	}
	return Submission{}, false
}

// suffixes returns domain and each parent suffix on dot boundaries,
// longest first: "a.b.c" -> ["a.b.c", "b.c", "c"].
func suffixes(domain string) []string {
	var out []string
	for domain != "" {
		out = append(out, domain)
		i := strings.IndexByte(domain, '.')
		if i < 0 {
			break
		}
		domain = domain[i+1:]
	}
	return out
}

func normalizeDomain(domain string) string {
	domain = strings.ToLower(strings.TrimSpace(domain))
	domain = strings.TrimSuffix(domain, ".")
	return domain
}

// DomainOfURL extracts the hostname from a URL or bare domain string.
func DomainOfURL(raw string) string {
	s := raw
	if i := strings.Index(s, "://"); i >= 0 {
		s = s[i+3:]
	}
	if i := strings.IndexAny(s, "/?#"); i >= 0 {
		s = s[:i]
	}
	if i := strings.IndexByte(s, '@'); i >= 0 {
		s = s[i+1:]
	}
	// Strip a port if present (IPv6 literals keep their brackets).
	if !strings.HasPrefix(s, "[") {
		if i := strings.LastIndexByte(s, ':'); i >= 0 {
			s = s[:i]
		}
	}
	return s
}
