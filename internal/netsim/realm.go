package netsim

import (
	"net/netip"
	"sort"
)

// A Realm is a region of the address space answered from derivations
// instead of registered hosts. The handcrafted world registers every
// host up front; at nation scale (~100k hosts) the synthetic bulk of the
// world instead lives behind a Realm: the network knows which addresses
// exist, what names they carry and what answers a dial to each port,
// all as pure functions of the address. Only the few realm hosts that
// need real state (a product console) become Hosts, on their first
// dial.
//
// The determinism contract: every answer a Realm gives must be a pure
// function of the address, the port and the realm's own seed. Then a
// realm network is byte-identical to one with every host registered,
// regardless of access order or worker count.
//
// The network asks the realm about an address it owns before looking
// at the hosts table, so a realm host the realm is still building is
// never reached half-wired: Port returns it only once it is complete.
// Every method may be called concurrently.
type Realm interface {
	// Contains reports whether addr belongs to the realm.
	Contains(addr netip.Addr) bool
	// Addrs returns every address in the realm, sorted. The scanner
	// sees these as existing hosts.
	Addrs() []netip.Addr
	// Resolve answers forward DNS for realm-owned names.
	Resolve(name string) (netip.Addr, bool)
	// ReverseLookup answers reverse DNS for realm-owned addresses.
	ReverseLookup(addr netip.Addr) (string, bool)
	// Port answers a dial to addr:port. owned is false when addr lies
	// outside the realm. Otherwise the dial is delivered to host (a
	// realm host with real state, built and registered on first call),
	// or served by handler (a Public port), or, when both are nil,
	// refused like a closed port.
	Port(addr netip.Addr, port uint16) (host *Host, handler Handler, owned bool)
}

// SetRealm attaches a derived address region to the network. At most
// one realm may be attached; passing nil detaches it.
func (n *Network) SetRealm(r Realm) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.realm = r
	n.tombstones = nil
}

// realmResolve answers forward DNS from the realm.
func (n *Network) realmResolve(name string) (netip.Addr, bool) {
	n.mu.RLock()
	r := n.realm
	n.mu.RUnlock()
	if r == nil {
		return netip.Addr{}, false
	}
	return r.Resolve(name)
}

// realmReverse answers reverse DNS from the realm.
func (n *Network) realmReverse(addr netip.Addr) (string, bool) {
	n.mu.RLock()
	r := n.realm
	n.mu.RUnlock()
	if r == nil {
		return "", false
	}
	return r.ReverseLookup(addr)
}

// realmAddrs returns the realm addresses that should appear in a
// scan sweep: everything the realm owns except removed addresses.
// Registered realm hosts are excluded too (the caller already has them
// from the hosts map).
func (n *Network) realmAddrs() []netip.Addr {
	n.mu.RLock()
	r := n.realm
	n.mu.RUnlock()
	if r == nil {
		return nil
	}
	all := r.Addrs()
	out := make([]netip.Addr, 0, len(all))
	n.mu.RLock()
	for _, a := range all {
		if _, reg := n.hosts[a]; reg || n.tombstones[a] {
			continue
		}
		out = append(out, a)
	}
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
