package world

import (
	"fmt"
	"net"
	"net/netip"
	"strings"
	"sync"

	"filtermap/internal/geo"
	"filtermap/internal/netsim"
	"filtermap/internal/urllist"
)

// Scale profile names (Options.Scale).
const (
	// ScaleSmall is the handcrafted paper world alone — the default.
	// "" and "small" are synonyms, byte-identical to every golden.
	ScaleSmall = "small"
	// ScaleCity adds ~1.5k synthetic hosts across 48 ISPs: large enough
	// to exercise the scale realm and its consoles, small enough for
	// -race CI runs.
	ScaleCity = "city"
	// ScaleNation adds ~100k synthetic hosts across 2200 ISPs: the
	// population scale the paper's method targets in the wild.
	ScaleNation = "nation"
)

// scaleProfile parameterizes the synthetic population.
type scaleProfile struct {
	isps         int
	hostMin      int // hosts per ISP: hostMin..hostMax inclusive
	hostMax      int
	consoleEvery int // every Nth ISP exposes a real product console
	decoyEvery   int // every Nth ISP hosts a keyword decoy page
}

var scaleProfiles = map[string]scaleProfile{
	ScaleCity:   {isps: 48, hostMin: 16, hostMax: 48, consoleEvery: 12, decoyEvery: 8},
	ScaleNation: {isps: 2200, hostMin: 32, hostMax: 64, consoleEvery: 64, decoyEvery: 48},
}

// scaleCountries are the countries synthetic ISPs are drawn from: the
// same set the handcrafted world already populates, so the synthetic
// population widens existing country cohorts instead of inventing new
// ones.
var scaleCountries = []string{
	"AE", "AR", "CL", "FI", "IL", "LB", "PH", "PK",
	"QA", "SA", "SE", "SY", "TH", "TW", "US", "YE",
}

// scaleISPFlavors season synthetic ISP names.
var scaleISPFlavors = []string{
	"Regional Telecom", "Metro Cable", "National Broadband", "City Fiber",
	"Valley Networks", "Coastal Internet", "Highland Online", "Delta Comm",
}

// scaleConsoleProducts rotates across console-bearing ISPs.
var scaleConsoleProducts = []string{"bluecoat", "netsweeper", "websense", "smartfilter"}

// Synthetic address plan: ISP i owns the /20 at 240.0.0.0 + (i<<12),
// inside the reserved class E block (240.0.0.0/4), which the
// handcrafted world never touches. Host j of ISP i sits at prefix
// offset 16+j (offsets 0..15 are reserved, router-style).
const (
	scaleBaseU32    = 0xF0_00_00_00 // 240.0.0.0
	scalePrefixBits = 20
	scaleHostOffset = 16
)

// purpose tags keep the per-(seed, ispIndex, hostIndex) hash streams
// independent.
const (
	tagCountry = iota + 1
	tagHosts
	tagFlavor
	tagDark
	tagTemplate
	tagPort
)

// splitmix64 is the avalanche core of the derivation hash.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// scaleRealm implements netsim.Realm: the synthetic population as a
// pure function of (worldSeed, ispIndex, hostIndex). Everything a
// synthetic host exposes — its existence, names, open ports and
// banners, whois and geo records — is answered from these derivations.
// Generic hosts and decoys never become netsim Hosts; only a product
// console does, built on its first dial through the ordinary
// world-construction paths.
type scaleRealm struct {
	w       *World
	profile scaleProfile
	seed    uint64

	templates []netsim.Handler // canned banners every generic host shares
	decoy     netsim.Handler   // the keyword decoy page
	consoles  []scaleConsole   // one per console ISP, i/consoleEvery
}

// scaleConsole is a console ISP's product host, built once on first
// dial.
type scaleConsole struct {
	once sync.Once
	host *netsim.Host
}

// mix derives an independent hash stream from the world seed and the
// given coordinates.
func (r *scaleRealm) mix(parts ...uint64) uint64 {
	h := splitmix64(r.seed ^ 0x66_69_6c_74_65_72_6d_61) // "filterma"
	for _, p := range parts {
		h = splitmix64(h ^ p)
	}
	return h
}

func newScaleRealm(w *World, profile scaleProfile) *scaleRealm {
	r := &scaleRealm{
		w:        w,
		profile:  profile,
		seed:     uint64(w.Opts.Seed),
		consoles: make([]scaleConsole, (profile.isps+profile.consoleEvery-1)/profile.consoleEvery),
	}
	for _, resp := range buildScaleTemplates() {
		r.templates = append(r.templates, cannedHandler(resp))
	}
	// The keyword decoy page: product vocabulary with no product behind
	// it, the false-positive pressure §3.1's validation stage exists to
	// absorb.
	decoyBody := fmt.Sprintf(`<h1>Filtering field notes</h1>
<p>Lab notes comparing ProxySG consoles, the webadmin deny flow and
blockpage.cgi styles across campus deployments. Sample captures from
%s and %s are archived for the methods class.</p>`,
		urllist.SyntheticDomain(r.seed, 0), urllist.SyntheticDomain(r.seed, 1))
	r.decoy = cannedHandler(cannedResponse("nginx/1.2.1", "Filtering field notes", decoyBody))
	return r
}

// --- pure derivations ---------------------------------------------------

func (r *scaleRealm) ispBaseU32(i int) uint32 {
	return scaleBaseU32 + uint32(i)<<(32-scalePrefixBits)
}

func (r *scaleRealm) ispPrefix(i int) netip.Prefix {
	return netip.PrefixFrom(u32Addr(r.ispBaseU32(i)), scalePrefixBits)
}

func (r *scaleRealm) ispASN(i int) int { return 3_000_000 + i }

func (r *scaleRealm) ispCountry(i int) string {
	return scaleCountries[r.mix(tagCountry, uint64(i))%uint64(len(scaleCountries))]
}

func (r *scaleRealm) ispName(i int) string {
	flavor := scaleISPFlavors[r.mix(tagFlavor, uint64(i))%uint64(len(scaleISPFlavors))]
	return fmt.Sprintf("SYN-%s-%04d %s", r.ispCountry(i), i, flavor)
}

func (r *scaleRealm) hostCount(i int) int {
	span := uint64(r.profile.hostMax - r.profile.hostMin + 1)
	return r.profile.hostMin + int(r.mix(tagHosts, uint64(i))%span)
}

func (r *scaleRealm) hostAddr(i, j int) netip.Addr {
	return u32Addr(r.ispBaseU32(i) + scaleHostOffset + uint32(j))
}

func (r *scaleRealm) hasConsole(i int) bool { return i%r.profile.consoleEvery == 0 }
func (r *scaleRealm) hasDecoy(i int) bool   { return i%r.profile.decoyEvery == 0 }

func (r *scaleRealm) consoleProduct(i int) string {
	return scaleConsoleProducts[(i/r.profile.consoleEvery)%len(scaleConsoleProducts)]
}

// hostName returns the DNS name for host j of ISP i ("" for the
// unnamed generic population).
func (r *scaleRealm) hostName(i, j int) string {
	cc := strings.ToLower(r.ispCountry(i))
	switch {
	case j == 0:
		return fmt.Sprintf("gw.synth%04d.example.%s", i, cc)
	case j == 1 && r.hasConsole(i):
		return fmt.Sprintf("proxy.synth%04d.example.%s", i, cc)
	case j == 2 && r.hasDecoy(i):
		return fmt.Sprintf("www.synth%04d.example.%s", i, cc)
	default:
		return ""
	}
}

// indexOf maps a realm address back to (ispIndex, hostIndex).
func (r *scaleRealm) indexOf(addr netip.Addr) (i, j int, ok bool) {
	if !addr.Is4() {
		return 0, 0, false
	}
	u := addrU32(addr)
	if u < scaleBaseU32 {
		return 0, 0, false
	}
	i = int((u - scaleBaseU32) >> (32 - scalePrefixBits))
	if i >= r.profile.isps {
		return 0, 0, false
	}
	off := int(u & ((1 << (32 - scalePrefixBits)) - 1))
	j = off - scaleHostOffset
	if j < 0 || j >= r.hostCount(i) {
		return 0, 0, false
	}
	return i, j, true
}

// generic host shape: a quarter of the generic population is dark.
func (r *scaleRealm) genericDark(i, j int) bool {
	return r.mix(tagDark, uint64(i), uint64(j))%4 == 0
}

func (r *scaleRealm) genericTemplate(i, j int) int {
	return int(r.mix(tagTemplate, uint64(i), uint64(j)) % uint64(len(r.templates)))
}

func (r *scaleRealm) genericPort(i, j int) uint16 {
	if r.mix(tagPort, uint64(i), uint64(j))%5 == 0 {
		return 8080
	}
	return 80
}

// TotalHosts sums the deterministic per-ISP host counts.
func (r *scaleRealm) TotalHosts() int {
	total := 0
	for i := 0; i < r.profile.isps; i++ {
		total += r.hostCount(i)
	}
	return total
}

// --- netsim.Realm -------------------------------------------------------

// Contains implements netsim.Realm.
func (r *scaleRealm) Contains(addr netip.Addr) bool {
	_, _, ok := r.indexOf(addr)
	return ok
}

// Addrs implements netsim.Realm: every synthetic address, sorted.
// ISP index ascends with the prefix base and host index with the
// offset, so generation order is already address order.
func (r *scaleRealm) Addrs() []netip.Addr {
	out := make([]netip.Addr, 0, r.TotalHosts())
	for i := 0; i < r.profile.isps; i++ {
		n := r.hostCount(i)
		for j := 0; j < n; j++ {
			out = append(out, r.hostAddr(i, j))
		}
	}
	return out
}

// Resolve implements netsim.Realm for the synthetic namespace
// ({gw,proxy,www}.synthNNNN.example.cc).
func (r *scaleRealm) Resolve(name string) (netip.Addr, bool) {
	role, i, ok := parseSynthName(name)
	if !ok || i >= r.profile.isps {
		return netip.Addr{}, false
	}
	var j int
	switch role {
	case "gw":
		j = 0
	case "proxy":
		j = 1
	case "www":
		j = 2
	default:
		return netip.Addr{}, false
	}
	// The name only exists if the derivation actually assigns it.
	if r.hostName(i, j) != strings.ToLower(name) {
		return netip.Addr{}, false
	}
	return r.hostAddr(i, j), true
}

// ReverseLookup implements netsim.Realm.
func (r *scaleRealm) ReverseLookup(addr netip.Addr) (string, bool) {
	i, j, ok := r.indexOf(addr)
	if !ok {
		return "", false
	}
	if name := r.hostName(i, j); name != "" {
		return name, true
	}
	return "", false
}

// Port implements netsim.Realm. A host's role decides the answer: the
// gateway and dark generic hosts answer nothing, a console is delivered
// to its product host, a decoy serves its page on port 80, and a
// generic host serves its banner on its one port.
func (r *scaleRealm) Port(addr netip.Addr, port uint16) (*netsim.Host, netsim.Handler, bool) {
	i, j, ok := r.indexOf(addr)
	if !ok {
		return nil, nil, false
	}
	switch {
	case j == 0:
		// Gateway: named but dark, like most infrastructure routers.
	case j == 1 && r.hasConsole(i):
		return r.console(i), nil, true
	case j == 2 && r.hasDecoy(i):
		if port == 80 {
			return nil, r.decoy, true
		}
	case r.genericDark(i, j):
		// Dark generic host: exists, answers nothing.
	case port == r.genericPort(i, j):
		return nil, r.templates[r.genericTemplate(i, j)], true
	}
	return nil, nil, true
}

// console returns ISP i's product console, building it on first call
// through the same registration paths the handcrafted world uses: the
// ISP's AS, the ISP, the console host and the product's ports.
// Concurrent first dials wait for the one build.
func (r *scaleRealm) console(i int) *netsim.Host {
	c := &r.consoles[i/r.profile.consoleEvery]
	c.once.Do(func() {
		host, err := r.buildConsole(i)
		if err != nil {
			// The console's ASN, ISP name and address are unique by
			// derivation, so only a bug can make its build fail.
			panic(fmt.Sprintf("world: build console of synthetic ISP %d: %v", i, err))
		}
		c.host = host
	})
	return c.host
}

func (r *scaleRealm) buildConsole(i int) (*netsim.Host, error) {
	w := r.w
	as, err := w.Net.AddAS(r.ispASN(i), r.ispName(i), r.ispCountry(i), r.ispPrefix(i))
	if err != nil {
		return nil, err
	}
	isp, err := w.Net.AddISP(r.ispName(i), as)
	if err != nil {
		return nil, err
	}
	host, err := w.Net.AddHost(r.hostAddr(i, 1), r.hostName(i, 1), isp)
	if err != nil {
		return nil, err
	}
	return host, w.installBackgroundProduct(r.consoleProduct(i), host)
}

// --- whois / geo fallbacks ----------------------------------------------

// whoisFallback answers IP→ASN queries for the synthetic space from
// the same derivations that name each ISP.
func (r *scaleRealm) whoisFallback(addr netip.Addr) (geo.ASRecord, bool) {
	i, _, ok := r.indexOf(addr)
	if !ok {
		return geo.ASRecord{}, false
	}
	return geo.ASRecord{
		ASN:      r.ispASN(i),
		Name:     r.ispName(i),
		Country:  r.ispCountry(i),
		Registry: "assigned",
		Prefix:   r.ispPrefix(i),
	}, true
}

// geoFallback answers geolocation for the synthetic space.
func (r *scaleRealm) geoFallback(addr netip.Addr) (string, bool) {
	i, _, ok := r.indexOf(addr)
	if !ok {
		return "", false
	}
	return r.ispCountry(i), true
}

// --- world wiring -------------------------------------------------------

// buildScale attaches the synthetic population selected by
// Options.Scale. The default ("", "small") attaches nothing, keeping
// every existing golden byte-for-byte.
func (w *World) buildScale() error {
	switch w.Opts.Scale {
	case "", ScaleSmall:
		return nil
	}
	profile, ok := scaleProfiles[w.Opts.Scale]
	if !ok {
		return fmt.Errorf("world: unknown scale %q (want %s, %s or %s)",
			w.Opts.Scale, ScaleSmall, ScaleCity, ScaleNation)
	}
	r := newScaleRealm(w, profile)
	w.scale = r
	w.Net.SetRealm(r)
	// Whois and geolocation answer for the whole synthetic space from
	// the same pure derivations, so a console host built on first dial
	// geolocates exactly like every other synthetic host.
	w.GeoDB.SetFallback(r.geoFallback)
	w.ASTable.SetFallback(r.whoisFallback)
	return nil
}

// ScaleHosts reports the synthetic population size (0 at the default
// profile).
func (w *World) ScaleHosts() int {
	if w.scale == nil {
		return 0
	}
	return w.scale.TotalHosts()
}

// ScaleISPs reports the synthetic ISP count (0 at the default profile).
func (w *World) ScaleISPs() int {
	if w.scale == nil {
		return 0
	}
	return w.scale.profile.isps
}

// --- canned HTTP plumbing -----------------------------------------------

// cannedResponse renders a complete HTTP response once; every host
// sharing the template serves the same backing bytes.
func cannedResponse(server, title, body string) []byte {
	page := "<!DOCTYPE html>\n<html><head><title>" + title + "</title></head>\n<body>" + body + "</body></html>\n"
	return []byte(fmt.Sprintf(
		"HTTP/1.0 200 OK\r\nContent-Type: text/html; charset=utf-8\r\nServer: %s\r\nContent-Length: %d\r\nConnection: close\r\n\r\n%s",
		server, len(page), page))
}

// cannedHandler serves a fixed response to every connection: the
// cheapest possible handler for the generic synthetic population.
// The in-memory pipe buffers writes, so the response can be written
// without draining the request first. It then half-closes rather than
// closes: the prober sees EOF after the response, and a request that
// lands after the handler returned is still accepted instead of failing
// on a closed pipe.
func cannedHandler(resp []byte) netsim.Handler {
	return netsim.HandlerFunc(func(conn net.Conn) {
		conn.Write(resp) //nolint:errcheck // peer may already be gone
		if cw, ok := conn.(interface{ CloseWrite() error }); ok {
			cw.CloseWrite() //nolint:errcheck // cannot fail in memory
			return
		}
		conn.Close()
	})
}

// buildScaleTemplates renders the generic banner set: the ordinary
// services a wide scan mostly finds, none carrying product vocabulary.
func buildScaleTemplates() [][]byte {
	specs := []struct{ server, title, body string }{
		{"nginx/1.2.1", "Welcome to nginx!", "<h1>Welcome to nginx!</h1><p>If you see this page, the nginx web server is successfully installed.</p>"},
		{"Apache/2.2.22 (Debian)", "It works!", "<h1>It works!</h1><p>This is the default web page for this server.</p>"},
		{"Microsoft-IIS/7.5", "Under Construction", "<h1>Under Construction</h1><p>The site you are trying to reach is being built.</p>"},
		{"lighttpd/1.4.28", "Index of /", "<h1>Index of /</h1><ul><li>pub/</li><li>incoming/</li></ul>"},
		{"RomPager/4.07 UPnP/1.0", "Router Login", "<h1>Residential Gateway</h1><form>PIN login required.</form>"},
		{"GoAhead-Webs", "Printer Status", "<h1>LaserJet Status</h1><p>Toner OK. Trays loaded.</p>"},
		{"Apache/2.2.15 (CentOS)", "Webmail Login", "<h1>Webmail</h1><form>Username / password.</form>"},
		{"MiniServ/1.580", "Hosting Panel", "<h1>Control Panel</h1><p>Sign in to manage your server.</p>"},
	}
	out := make([][]byte, len(specs))
	for i, s := range specs {
		out[i] = cannedResponse(s.server, s.title, s.body)
	}
	return out
}

// parseSynthName splits "{role}.synthNNNN.example.cc" into its role
// and ISP index.
func parseSynthName(name string) (role string, isp int, ok bool) {
	parts := strings.Split(strings.ToLower(name), ".")
	if len(parts) != 4 || parts[2] != "example" {
		return "", 0, false
	}
	var i int
	if _, err := fmt.Sscanf(parts[1], "synth%04d", &i); err != nil || i < 0 {
		return "", 0, false
	}
	return parts[0], i, true
}

// --- address helpers ----------------------------------------------------

func u32Addr(u uint32) netip.Addr {
	return netip.AddrFrom4([4]byte{byte(u >> 24), byte(u >> 16), byte(u >> 8), byte(u)})
}

func addrU32(a netip.Addr) uint32 {
	b := a.As4()
	return uint32(b[0])<<24 | uint32(b[1])<<16 | uint32(b[2])<<8 | uint32(b[3])
}
