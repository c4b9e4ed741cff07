package netsim

import "net/netip"

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
	rt := n.editRoute()
	rt.realm = r
	rt.tombstones = nil
	n.route.Store(rt)
}
