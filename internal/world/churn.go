package world

import (
	"fmt"
	"net/netip"

	"filtermap/internal/geo"
)

// This file mutates an already-built world between identification runs,
// modeling the deployment churn the longitudinal layer exists to detect:
// new installations appearing, old ones going dark, and surviving boxes
// being re-announced from a different AS or country. These helpers touch
// the network, geo DB and whois table, none of which tolerate concurrent
// mutation with a running pipeline — churn the world between runs, not
// during one.

// backgroundProducts are the product names installBackgroundProduct
// accepts (it panics on anything else, so AddBackgroundInstall validates
// here first).
var backgroundProducts = map[string]bool{
	"bluecoat": true, "netsweeper": true, "websense": true, "smartfilter": true,
}

// AddBackgroundInstall stands up a new background installation — a new
// AS, ISP and host with the product's network faces mounted — exactly
// like the seed installations behind Figure 1. The next identification
// run discovers it.
func (w *World) AddBackgroundInstall(product string, asn int, asName, country, cidr, ip, hostname string) error {
	if !backgroundProducts[product] {
		return fmt.Errorf("world: unknown background product %q", product)
	}
	addr, err := netip.ParseAddr(ip)
	if err != nil {
		return fmt.Errorf("world: add install: %w", err)
	}
	if err := w.addAS(asn, asName, country, cidr); err != nil {
		return fmt.Errorf("world: add install: %w", err)
	}
	isp, err := w.Net.AddISP(asName)
	if err != nil {
		return fmt.Errorf("world: add install: %w", err)
	}
	host, err := w.Net.AddHost(addr, hostname, isp)
	if err != nil {
		return fmt.Errorf("world: add install: %w", err)
	}
	return w.installBackgroundProduct(product, host)
}

// RemoveInstallation takes the host at ip off the network (ports
// unbound, DNS withdrawn). The next identification run no longer finds it.
func (w *World) RemoveInstallation(ip string) error {
	addr, err := netip.ParseAddr(ip)
	if err != nil {
		return fmt.Errorf("world: remove installation: %w", err)
	}
	if _, ok := w.Net.Host(addr); !ok {
		return fmt.Errorf("world: remove installation: no host at %s", ip)
	}
	w.Net.RemoveHost(addr)
	return nil
}

// UpgradeInstallation swaps the product mounted at ip for newProduct in
// place: the host is torn down (ports unbound, DNS withdrawn) and
// stood back up at the same address, hostname and ISP with the new
// product's network faces. The next identification run sees the old
// product vanish and the new one appear on the same box — a vendor
// change, the transition "Where The Light Gets In" caught ISPs making
// between measurement rounds.
func (w *World) UpgradeInstallation(ip, newProduct string) error {
	if !backgroundProducts[newProduct] {
		return fmt.Errorf("world: unknown background product %q", newProduct)
	}
	addr, err := netip.ParseAddr(ip)
	if err != nil {
		return fmt.Errorf("world: upgrade installation: %w", err)
	}
	host, ok := w.Net.Host(addr)
	if !ok {
		return fmt.Errorf("world: upgrade installation: no host at %s", ip)
	}
	name, isp := host.Name(), host.ISP()
	w.Net.RemoveHost(addr)
	fresh, err := w.Net.AddHost(addr, name, isp)
	if err != nil {
		return fmt.Errorf("world: upgrade installation: %w", err)
	}
	return w.installBackgroundProduct(newProduct, fresh)
}

// MigrateInstallation re-announces the host at ip from a different AS
// (and optionally country) by overlaying a /32 record in the whois table
// and geolocation DB — most-specific-prefix matching makes the overlay
// win over the original /16. The host itself keeps serving; only its
// attribution moves, which is exactly what an ISP renumbering or
// acquiring a deployment looks like from the §3 vantage. newCountry ""
// keeps the original country.
func (w *World) MigrateInstallation(ip string, newASN int, newASName, newCountry string) error {
	addr, err := netip.ParseAddr(ip)
	if err != nil {
		return fmt.Errorf("world: migrate installation: %w", err)
	}
	if _, ok := w.Net.Host(addr); !ok {
		return fmt.Errorf("world: migrate installation: no host at %s", ip)
	}
	country := newCountry
	if country == "" {
		if rec, ok := w.ASTable.Lookup(addr); ok {
			country = rec.Country
		}
	}
	single := netip.PrefixFrom(addr, addr.BitLen())
	w.ASTable.Add(geo.ASRecord{ASN: newASN, Name: newASName, Country: country, Prefix: single})
	if newCountry != "" {
		w.GeoDB.Add(single, newCountry)
	}
	return nil
}
