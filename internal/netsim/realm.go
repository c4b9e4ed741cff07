package netsim

import (
	"net/netip"
	"sort"
	"sync"
)

// A Realm is a lazily-materialized region of the address space. The
// handcrafted world registers every host up front; at nation scale
// (~100k hosts) that eager build dominates start-up cost and memory,
// so the synthetic bulk of the world instead lives behind a Realm:
// the network knows which addresses exist and what names they carry
// (all pure functions of the address), but a Host object — listeners,
// banners, ISP membership — is only constructed the first time the
// address is dialed.
//
// The determinism contract: every answer a Realm gives, and every
// host it materializes, must be a pure function of the address and
// the realm's own seed. Then a fully-lazy network is byte-identical
// to an eagerly-built one regardless of access order or worker count.
//
// Contains, Addrs, Resolve and ReverseLookup may be called
// concurrently and must not mutate state. Materialize is always
// called under the network's materialization lock (never twice
// concurrently) and registers hosts via the ordinary AddHost /
// AddISP / AddAS paths; it must be idempotent per address, because a
// whole-ISP materializer will be re-entered for sibling addresses.
type Realm interface {
	// Contains reports whether addr belongs to the realm.
	Contains(addr netip.Addr) bool
	// Addrs returns every address in the realm, sorted. The scanner
	// sees these as existing hosts whether or not they have been
	// materialized.
	Addrs() []netip.Addr
	// Resolve answers forward DNS for realm-owned names without
	// materializing anything.
	Resolve(name string) (netip.Addr, bool)
	// ReverseLookup answers reverse DNS for realm-owned addresses
	// without materializing anything.
	ReverseLookup(addr netip.Addr) (string, bool)
	// Materialize constructs and registers the host at addr (and may
	// register its whole ISP in one call). Hosts it registers stay
	// undialable until it returns, so it may bind their listeners after
	// AddHost.
	Materialize(addr netip.Addr) error
}

// realmState is the network-side bookkeeping for a Realm.
type realmState struct {
	realm Realm

	// matMu serializes materialization so two dialers racing for the
	// same cold address build it exactly once. It is separate from
	// Network.mu because Materialize re-enters AddHost/AddISP/AddAS,
	// which take Network.mu themselves.
	matMu sync.Mutex

	// materialized records addresses whose Materialize has completed,
	// including hosts later dropped with RemoveHost — a removed host
	// must stay removed, not quietly regenerate on the next dial.
	mu           sync.Mutex
	materialized map[netip.Addr]bool

	// building is set while Materialize runs, and staged collects the
	// realm hosts AddHost registers meanwhile (both guarded by
	// Network.mu). A staged host is pending: registered so the
	// materializer can wire it, but not dialable until Materialize
	// returns and its listeners exist.
	building bool
	staged   []*Host
}

func (rs *realmState) done(addr netip.Addr) bool {
	rs.mu.Lock()
	defer rs.mu.Unlock()
	return rs.materialized[addr]
}

func (rs *realmState) markDone(addr netip.Addr) {
	rs.mu.Lock()
	rs.materialized[addr] = true
	rs.mu.Unlock()
}

// SetRealm attaches a lazily-materialized address region to the
// network. At most one realm may be attached; passing nil detaches.
func (n *Network) SetRealm(r Realm) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if r == nil {
		n.realm = nil
		return
	}
	n.realm = &realmState{realm: r, materialized: make(map[netip.Addr]bool)}
}

// Realm returns the attached realm, or nil.
func (n *Network) Realm() Realm {
	n.mu.RLock()
	defer n.mu.RUnlock()
	if n.realm == nil {
		return nil
	}
	return n.realm.realm
}

// materializeIfRealm ensures the host at addr exists if the realm
// owns the address, returning the host (nil when addr is outside the
// realm, was removed, or failed to materialize). Exactly one caller
// runs Materialize for a given address; concurrent dialers for the
// same cold address, or for a pending sibling the running
// materialization registered, queue on matMu and find the host wired.
func (n *Network) materializeIfRealm(addr netip.Addr) *Host {
	n.mu.RLock()
	rs := n.realm
	closed := n.closed
	n.mu.RUnlock()
	if rs == nil || closed || !rs.realm.Contains(addr) {
		return nil
	}
	rs.matMu.Lock()
	defer rs.matMu.Unlock()
	n.mu.RLock()
	h := n.hosts[addr]
	n.mu.RUnlock()
	if h != nil || rs.done(addr) {
		return h
	}
	n.mu.Lock()
	rs.building = true
	n.mu.Unlock()
	err := rs.realm.Materialize(addr)
	n.mu.Lock()
	rs.building = false
	staged := rs.staged
	rs.staged = nil
	h = n.hosts[addr]
	n.mu.Unlock()
	for _, s := range staged {
		s.pending.Store(false)
	}
	if err != nil {
		return nil
	}
	rs.markDone(addr)
	return h
}

// realmResolve answers forward DNS from the realm without
// materializing the target.
func (n *Network) realmResolve(name string) (netip.Addr, bool) {
	n.mu.RLock()
	rs := n.realm
	n.mu.RUnlock()
	if rs == nil {
		return netip.Addr{}, false
	}
	return rs.realm.Resolve(name)
}

// realmReverse answers reverse DNS from the realm without
// materializing the target.
func (n *Network) realmReverse(addr netip.Addr) (string, bool) {
	n.mu.RLock()
	rs := n.realm
	n.mu.RUnlock()
	if rs == nil || !rs.realm.Contains(addr) {
		return "", false
	}
	return rs.realm.ReverseLookup(addr)
}

// realmAddrs returns the realm addresses that should appear in a
// scan sweep: everything the realm owns except hosts that were
// materialized and later removed. Registered realm hosts are
// excluded too (the caller already has them from the hosts map).
func (n *Network) realmAddrs() []netip.Addr {
	n.mu.RLock()
	rs := n.realm
	n.mu.RUnlock()
	if rs == nil {
		return nil
	}
	all := rs.realm.Addrs()
	out := make([]netip.Addr, 0, len(all))
	n.mu.RLock()
	rs.mu.Lock()
	for _, a := range all {
		if _, reg := n.hosts[a]; reg {
			continue // already counted among registered hosts
		}
		if rs.materialized[a] {
			continue // materialized then removed: stays gone
		}
		out = append(out, a)
	}
	rs.mu.Unlock()
	n.mu.RUnlock()
	return out
}

// mergeSortedAddrs merges two individually-sorted address slices.
func mergeSortedAddrs(a, b []netip.Addr) []netip.Addr {
	if len(b) == 0 {
		return a
	}
	out := make([]netip.Addr, 0, len(a)+len(b))
	out = append(out, a...)
	out = append(out, b...)
	sort.Slice(out, func(i, j int) bool { return out[i].Less(out[j]) })
	return out
}
