// Package geo provides the IP-metadata substrate of §3.1: a MaxMind-style
// geolocation database and a Team Cymru-style IP-to-ASN whois service with
// a bulk-query client.
//
// The paper maps each validated URL-filter IP to a country (MaxMind) and
// an autonomous system (Team Cymru whois). We implement both sides: the
// databases, a line-oriented whois protocol server that serves one TCP
// connection per session (a simulated port binds it directly), and the
// client the identification pipeline uses.
//
// Both tables are keyed by masked prefix, grouped by prefix length: a
// lookup probes one map per distinct length, most specific first, so
// cost is O(distinct lengths) instead of O(records). That keeps whois
// and geolocation flat-cost as the synthetic world grows to thousands
// of prefixes. Addresses outside every stored prefix can be answered
// by a fallback function (SetFallback), which is how the derived realm
// address space gets whois/geo answers without storing a record per
// synthetic ISP.
package geo

import (
	"fmt"
	"net/netip"
	"sort"
	"strings"
	"sync"
)

// Record is one geolocation database entry.
type Record struct {
	Prefix  netip.Prefix
	Country string // ISO 3166-1 alpha-2
}

// DB is a longest-prefix-match geolocation database. The zero value is an
// empty database ready for Add. DB is safe for concurrent use.
type DB struct {
	mu       sync.RWMutex
	byBits   map[int]map[netip.Addr]string // prefix length → masked prefix addr → country
	bits     []int                         // distinct lengths, descending (most specific first)
	count    int
	fallback func(netip.Addr) (string, bool)
}

// Add inserts a prefix→country mapping. Re-adding an identical prefix
// replaces the old record (last write wins), so overlays can move an
// address between countries more than once.
func (db *DB) Add(prefix netip.Prefix, country string) {
	p := prefix.Masked()
	db.mu.Lock()
	defer db.mu.Unlock()
	if db.byBits == nil {
		db.byBits = make(map[int]map[netip.Addr]string)
	}
	m := db.byBits[p.Bits()]
	if m == nil {
		m = make(map[netip.Addr]string)
		db.byBits[p.Bits()] = m
		db.bits = insertBitsDesc(db.bits, p.Bits())
	}
	if _, dup := m[p.Addr()]; !dup {
		db.count++
	}
	m[p.Addr()] = strings.ToUpper(country)
}

// AddCIDR parses cidr and inserts it. It returns an error on a malformed
// prefix.
func (db *DB) AddCIDR(cidr, country string) error {
	p, err := netip.ParsePrefix(cidr)
	if err != nil {
		return fmt.Errorf("geo: bad prefix %q: %w", cidr, err)
	}
	db.Add(p, country)
	return nil
}

// SetFallback installs a function consulted for addresses no stored
// prefix contains. The synthetic world's realm answers here with a
// country derived purely from the address, so every synthetic host
// geolocates without a stored record.
func (db *DB) SetFallback(fn func(netip.Addr) (string, bool)) {
	db.mu.Lock()
	db.fallback = fn
	db.mu.Unlock()
}

// Country returns the country of the most specific prefix containing addr.
func (db *DB) Country(addr netip.Addr) (string, bool) {
	db.mu.RLock()
	for _, b := range db.bits {
		p, err := addr.Prefix(b)
		if err != nil {
			continue
		}
		if c, ok := db.byBits[b][p.Addr()]; ok {
			db.mu.RUnlock()
			return c, true
		}
	}
	fn := db.fallback
	db.mu.RUnlock()
	if fn != nil {
		return fn(addr)
	}
	return "", false
}

// Len returns the number of records.
func (db *DB) Len() int {
	db.mu.RLock()
	defer db.mu.RUnlock()
	return db.count
}

// ASRecord is one IP-to-ASN entry, mirroring the fields of a Team Cymru
// verbose response.
type ASRecord struct {
	ASN      int
	Name     string
	Country  string
	Registry string
	Prefix   netip.Prefix
}

// ASTable answers IP→ASN queries with longest-prefix matching. The zero
// value is ready to use.
type ASTable struct {
	mu       sync.RWMutex
	byBits   map[int]map[netip.Addr]ASRecord
	bits     []int
	count    int
	fallback func(netip.Addr) (ASRecord, bool)
}

// Add inserts a record. Registry defaults to "assigned" when empty.
// Identical prefixes replace (last write wins): a re-migrated
// installation must resolve to its newest announcement.
func (t *ASTable) Add(rec ASRecord) {
	if rec.Registry == "" {
		rec.Registry = "assigned"
	}
	rec.Prefix = rec.Prefix.Masked()
	rec.Country = strings.ToUpper(rec.Country)
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.byBits == nil {
		t.byBits = make(map[int]map[netip.Addr]ASRecord)
	}
	m := t.byBits[rec.Prefix.Bits()]
	if m == nil {
		m = make(map[netip.Addr]ASRecord)
		t.byBits[rec.Prefix.Bits()] = m
		t.bits = insertBitsDesc(t.bits, rec.Prefix.Bits())
	}
	if _, dup := m[rec.Prefix.Addr()]; !dup {
		t.count++
	}
	m[rec.Prefix.Addr()] = rec
}

// SetFallback installs a function consulted for addresses no stored
// prefix contains, mirroring DB.SetFallback for whois answers.
func (t *ASTable) SetFallback(fn func(netip.Addr) (ASRecord, bool)) {
	t.mu.Lock()
	t.fallback = fn
	t.mu.Unlock()
}

// Lookup returns the most specific record containing addr.
func (t *ASTable) Lookup(addr netip.Addr) (ASRecord, bool) {
	t.mu.RLock()
	for _, b := range t.bits {
		p, err := addr.Prefix(b)
		if err != nil {
			continue
		}
		if rec, ok := t.byBits[b][p.Addr()]; ok {
			t.mu.RUnlock()
			return rec, true
		}
	}
	fn := t.fallback
	t.mu.RUnlock()
	if fn != nil {
		return fn(addr)
	}
	return ASRecord{}, false
}

// Len returns the number of records.
func (t *ASTable) Len() int {
	t.mu.RLock()
	defer t.mu.RUnlock()
	return t.count
}

// insertBitsDesc inserts b into the descending-sorted lengths slice.
func insertBitsDesc(bits []int, b int) []int {
	i := sort.Search(len(bits), func(i int) bool { return bits[i] <= b })
	bits = append(bits, 0)
	copy(bits[i+1:], bits[i:])
	bits[i] = b
	return bits
}
