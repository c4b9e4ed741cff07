// Package common provides the shared machinery of URL-filtering products:
// policy engines, deployment database views with sync schedules, the
// concurrent-license model behind §4.4's "inconsistent blocking", and the
// transparent/explicit gateway middlebox that mounts an engine on an ISP's
// egress path.
//
// Each vendor package (bluecoat, smartfilter, netsweeper, websense) builds
// a PolicyEngine with its own database, block pages and wire quirks; the
// Gateway here is the chassis they all run on. The separation also models
// §4.5's stacked deployments: a Blue Coat ProxySG chassis can carry a
// McAfee SmartFilter engine.
package common

import (
	"time"

	"filtermap/internal/categorydb"
	"filtermap/internal/httpwire"
)

// Decision is a policy engine's verdict on one request.
type Decision struct {
	// Block reports whether the request must be answered with a block
	// page instead of being forwarded.
	Block bool
	// Category is the vendor category that triggered the block ("" when
	// not blocked).
	Category string
	// Response is the vendor-rendered block page (or block redirect) to
	// send when Block is true.
	Response *httpwire.Response
}

// Pass is the non-blocking decision.
var Pass = Decision{}

// PolicyEngine decides the fate of a request at a moment in time. Engines
// must be safe for concurrent use.
type PolicyEngine interface {
	// ProductName identifies the engine's vendor product, e.g.
	// "McAfee SmartFilter".
	ProductName() string
	// Decide evaluates req as of time at.
	Decide(req *httpwire.Request, at time.Time) Decision
}

// SyncView is a deployment's eventually-consistent view of a vendor's
// master database. Deployments do not see master updates live; they pull
// them on a sync schedule. This propagation lag is what makes Du block
// only 5 of 6 submitted sites in Table 3 while YemenNet and Ooredoo,
// syncing frequently, block all 6.
type SyncView struct {
	DB *categorydb.DB
	// Interval is the sync period. Zero means a live view.
	Interval time.Duration
	// Anchor fixes the sync schedule: syncs happen at Anchor + k*Interval.
	Anchor time.Time
	// FrozenAt, if non-zero, is when the vendor cut off updates (Websense
	// withdrew update support from Yemen in 2009, §2.2); the view never
	// advances past it.
	FrozenAt time.Time
}

// LastSync returns the effective database timestamp visible at time at.
func (v *SyncView) LastSync(at time.Time) time.Time {
	eff := at
	if v.Interval > 0 {
		if at.Before(v.Anchor) {
			// Before the first scheduled sync the deployment still has
			// the database it shipped with — treat as live.
			eff = at
		} else {
			k := at.Sub(v.Anchor) / v.Interval
			eff = v.Anchor.Add(k * v.Interval)
		}
	}
	if !v.FrozenAt.IsZero() && eff.After(v.FrozenAt) {
		eff = v.FrozenAt
	}
	return eff
}

// Lookup returns the category of domain as the deployment sees it at time
// at.
func (v *SyncView) Lookup(domain string, at time.Time) (string, bool) {
	return v.DB.LookupAt(domain, v.LastSync(at))
}

// LicenseModel reproduces §4.4's second challenge: a deployment licensed
// for a maximum number of concurrent users fails open when demand exceeds
// the license ("when the number of users exceeded the number of licenses
// no content would be filtered"). Load is a deterministic function of
// time, so inconsistent blocking replays identically.
type LicenseModel struct {
	// MaxConcurrent is the licensed number of simultaneous users.
	MaxConcurrent int
	// Load reports the concurrent user demand at a moment.
	Load func(at time.Time) int
}

// FilteringActive reports whether the filter is enforcing at time at. A
// nil model or nil Load is always active.
func (l *LicenseModel) FilteringActive(at time.Time) bool {
	if l == nil || l.Load == nil {
		return true
	}
	return l.Load(at) <= l.MaxConcurrent
}

// DiurnalLoad returns a deterministic, day-periodic load function: demand
// ramps between min and max users over each 24h cycle with the peak at
// peakHour. It is a sawtooth-free piecewise-linear curve, so threshold
// crossings (fail-open windows) are easy to reason about in tests.
func DiurnalLoad(minUsers, maxUsers, peakHour int) func(time.Time) int {
	if maxUsers < minUsers {
		minUsers, maxUsers = maxUsers, minUsers
	}
	span := maxUsers - minUsers
	return func(at time.Time) int {
		h := at.UTC().Hour()
		dist := h - peakHour
		if dist < 0 {
			dist = -dist
		}
		if dist > 12 {
			dist = 24 - dist
		}
		// dist 0 (peak) -> max, dist 12 (trough) -> min.
		return maxUsers - span*dist/12
	}
}

// CategoryPolicy is the operator-facing policy: which vendor categories a
// deployment blocks, plus a local custom blocklist (§2.1: "the ability to
// create custom categories"). Saudi Arabia enabling pornography but not
// the proxy category (§4.3, challenge 1) is a CategoryPolicy difference,
// not a database difference.
type CategoryPolicy struct {
	enabled map[string]bool
	custom  map[string]string // domain -> custom category label
}

// NewCategoryPolicy returns a policy blocking the given vendor categories.
func NewCategoryPolicy(categories ...string) *CategoryPolicy {
	p := &CategoryPolicy{enabled: make(map[string]bool), custom: make(map[string]string)}
	for _, c := range categories {
		p.enabled[c] = true
	}
	return p
}

// Enabled reports whether a vendor category is blocked.
func (p *CategoryPolicy) Enabled(category string) bool { return p.enabled[category] }

// AddCustom adds a domain to the operator's local blocklist under a custom
// category label.
func (p *CategoryPolicy) AddCustom(domain, label string) { p.custom[domain] = label }

// CustomCategory returns the custom label for domain, if the operator
// listed it (or a parent domain).
func (p *CategoryPolicy) CustomCategory(domain string) (string, bool) {
	for d := domain; d != ""; {
		if label, ok := p.custom[d]; ok {
			return label, true
		}
		i := indexDot(d)
		if i < 0 {
			break
		}
		d = d[i+1:]
	}
	return "", false
}

func indexDot(s string) int {
	for i := 0; i < len(s); i++ {
		if s[i] == '.' {
			return i
		}
	}
	return -1
}
