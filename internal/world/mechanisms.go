package world

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sort"
	"strings"

	"filtermap/internal/httpwire"
	"filtermap/internal/measurement"
	"filtermap/internal/mechanism"
	"filtermap/internal/netsim"
	"filtermap/internal/urllist"
)

// This file stands up the multi-mechanism censorship deployments: ISPs
// that block not with an in-path HTTP middlebox but with DNS poisoning,
// TCP RST injection, or SNI-based TLS filtering. Everything is gated on
// Options.Mechanisms — a nil Mechanisms builds the exact world earlier
// snapshots hashed, byte for byte.

// MechanismOptions enables the multi-mechanism deployments.
type MechanismOptions struct {
	// Seed, when nonzero, permutes product assignment and category draws
	// independently of Options.Seed (which is used otherwise).
	Seed int64 `json:",omitempty"`
}

// MechAssignment is one (mechanism, product) pair deployed at an ISP.
type MechAssignment struct {
	Kind    mechanism.Kind
	Product string
}

// MechDeployment is the ground truth for one mechanism-censoring ISP —
// what the probes should rediscover.
type MechDeployment struct {
	ISP     string
	Country string
	ASN     int
	// Assignments lists the deployed mechanisms, primary first.
	Assignments []MechAssignment
	// BlockedDomains is the sorted censored-domain sample (drawn from the
	// global list's Table 4 categories).
	BlockedDomains []string
}

// cleanDNSTTL is the TTL honest resolvers in this world answer with. It
// deliberately matches no product's forged-record quirk.
const cleanDNSTTL = 14400

// mechISPSpec is one roster row: a country's mechanism-censoring ISP.
// base is the first two octets of its /16.
type mechISPSpec struct {
	name    string
	asn     int
	asName  string
	country string
	base    string
	kind    mechanism.Kind
}

// mechRoster is the fixed nine-ISP roster: three per mechanism. Which
// product each runs rotates with the seed; the roster itself does not.
var mechRoster = []mechISPSpec{
	// Note: PTCL (AS17557) is deliberately absent — the background-
	// installation layer already owns that AS for its SmartFilter probe
	// target, and addAS refuses a second AS with one number.
	{"Nayatel", 23674, "NAYATEL-PK Nayatel Pvt", "PK", "221.120", mechanism.KindDNS},
	{"BSNL", 9829, "BSNL-NIB National Internet Backbone", "IN", "117.96", mechanism.KindDNS},
	{"TurkTelekom", 9121, "TTNET Turk Telekomunikasyon", "TR", "212.156", mechanism.KindDNS},
	{"Rostelecom", 12389, "ROSTELECOM-AS PJSC Rostelecom", "RU", "213.59", mechanism.KindRST},
	{"TelkomIndonesia", 7713, "TELKOMNET-AS-AP PT Telekomunikasi Indonesia", "ID", "125.160", mechanism.KindRST},
	{"TOT", 23969, "TOT-NET TOT Public Company", "TH", "180.180", mechanism.KindRST},
	{"VNPT", 45899, "VNPT-AS-VN VNPT Corp", "VN", "14.160", mechanism.KindSNI},
	{"TelecomEgypt", 8452, "TE-AS Telecom Egypt", "EG", "41.32", mechanism.KindSNI},
	{"Kazakhtelecom", 9198, "KAZTELECOM-AS JSC Kazakhtelecom", "KZ", "92.46", mechanism.KindSNI},
}

// Products eligible per mechanism, in signature-table order.
var mechProductsByKind = map[mechanism.Kind][]string{
	mechanism.KindDNS: {mechanism.ProductNetsweeper, mechanism.ProductBlueCoat, mechanism.ProductSmartFilter},
	mechanism.KindRST: {mechanism.ProductNetsweeper, mechanism.ProductBlueCoat, mechanism.ProductSmartFilter},
	mechanism.KindSNI: {mechanism.ProductNetsweeper, mechanism.ProductBlueCoat, mechanism.ProductWebsense},
}

// mechHash is the deterministic draw shared by product rotation and
// category selection (FNV-64a over the seed and parts).
func mechHash(seed int64, parts ...string) uint64 {
	h := uint64(14695981039346656037)
	mix := func(b byte) { h ^= uint64(b); h *= 1099511628211 }
	for i := 0; i < 8; i++ {
		mix(byte(uint64(seed) >> (8 * i)))
	}
	for _, p := range parts {
		for i := 0; i < len(p); i++ {
			mix(p[i])
		}
		mix(0)
	}
	return h
}

// mechSeed resolves the effective mechanism seed.
func (w *World) mechSeed() int64 {
	if w.Opts.Mechanisms != nil && w.Opts.Mechanisms.Seed != 0 {
		return w.Opts.Mechanisms.Seed
	}
	return w.Opts.Seed
}

// sinkholeAddrs is the set of forged-answer destinations; the stream
// filters must let block-page fetches to them through.
func sinkholeAddrs() map[netip.Addr]bool {
	out := make(map[netip.Addr]bool)
	for _, sig := range mechanism.DNSSignatures() {
		if sig.Sinkhole.IsValid() {
			out[sig.Sinkhole] = true
		}
	}
	return out
}

// signature lookups by product.
func dnsSigFor(product string) (mechanism.DNSSignature, bool) {
	for _, s := range mechanism.DNSSignatures() {
		if s.Product == product {
			return s, true
		}
	}
	return mechanism.DNSSignature{}, false
}

func rstSigFor(product string) (mechanism.RSTSignature, bool) {
	for _, s := range mechanism.RSTSignatures() {
		if s.Product == product {
			return s, true
		}
	}
	return mechanism.RSTSignature{}, false
}

func sniSigFor(product string) (mechanism.SNISignature, bool) {
	for _, s := range mechanism.SNISignatures() {
		if s.Product == product {
			return s, true
		}
	}
	return mechanism.SNISignature{}, false
}

// mechAssignments computes the deterministic (mechanism, product) plan
// for the whole roster: products rotate within each mechanism by seed,
// and the first ISP of each mechanism gains a secondary mechanism run by
// the same product (where that product has a signature for it) — the
// mixed deployments the acceptance demands.
func mechAssignments(seed int64) [][]MechAssignment {
	idxInKind := make(map[mechanism.Kind]int)
	out := make([][]MechAssignment, len(mechRoster))
	for i, spec := range mechRoster {
		k := idxInKind[spec.kind]
		idxInKind[spec.kind]++
		products := mechProductsByKind[spec.kind]
		rot := int(mechHash(seed, "product-rotation", string(spec.kind)) % uint64(len(products)))
		product := products[(k+rot)%len(products)]
		assigns := []MechAssignment{{Kind: spec.kind, Product: product}}
		if k == 0 {
			// Secondary mechanism for the first ISP of each kind, gated on
			// the product actually having a signature there.
			for _, sec := range secondaryKinds(spec.kind) {
				if mechProductHasKind(product, sec) {
					assigns = append(assigns, MechAssignment{Kind: sec, Product: product})
					break
				}
			}
		}
		out[i] = assigns
	}
	return out
}

// secondaryKinds is the mixing preference per primary kind.
func secondaryKinds(primary mechanism.Kind) []mechanism.Kind {
	switch primary {
	case mechanism.KindDNS:
		return []mechanism.Kind{mechanism.KindRST, mechanism.KindSNI}
	case mechanism.KindRST:
		return []mechanism.Kind{mechanism.KindSNI, mechanism.KindDNS}
	default:
		return []mechanism.Kind{mechanism.KindDNS, mechanism.KindRST}
	}
}

// mechProductHasKind reports whether product has a signature for kind.
func mechProductHasKind(product string, kind mechanism.Kind) bool {
	switch kind {
	case mechanism.KindDNS:
		_, ok := dnsSigFor(product)
		return ok
	case mechanism.KindRST:
		_, ok := rstSigFor(product)
		return ok
	case mechanism.KindSNI:
		_, ok := sniSigFor(product)
		return ok
	}
	return false
}

// mechBlockedDomains draws each ISP's censored domains: global-list
// domains from two Table 4 categories, rotated by seed and ISP index.
func mechBlockedDomains(seed int64, ispIndex int) []string {
	cats := []string{
		urllist.CatMediaFreedom, urllist.CatHumanRights, urllist.CatPoliticalReform,
		urllist.CatLGBT, urllist.CatReligiousCriticism, urllist.CatMinorityRights,
	}
	rot := int(mechHash(seed, "category-rotation") % uint64(len(cats)))
	pick := map[string]bool{
		cats[(ispIndex+rot)%len(cats)]:   true,
		cats[(ispIndex+rot+3)%len(cats)]: true,
	}
	var domains []string
	for _, e := range urllist.GlobalList().Entries {
		if pick[e.Category] {
			domains = append(domains, e.Domain)
		}
	}
	sort.Strings(domains)
	return domains
}

// buildMechanisms stands up the roster: per ISP an AS, a field tester,
// the mechanism filters with product quirks, and (for DNS deployments) a
// poisoned in-ISP resolver. Shared across ISPs: the product sinkhole
// hosts serving attributable block pages, and an honest lab resolver.
func (w *World) buildMechanisms() error {
	seed := w.mechSeed()
	assignments := mechAssignments(seed)
	sinks := sinkholeAddrs()

	// Category lookup for the sinkhole block pages.
	catFor := make(map[string]string)
	for _, e := range urllist.GlobalList().Entries {
		catFor[e.Domain] = e.Category
	}

	// Shared sinkhole hosts at the quirk addresses (one per sinkhole
	// product), serving that product's block page with the category of
	// the requested domain.
	for _, sig := range mechanism.DNSSignatures() {
		if !sig.Sinkhole.IsValid() {
			continue
		}
		if err := w.serveSinkhole(sig, catFor); err != nil {
			return err
		}
	}

	// Honest lab-side resolver (the comparison leg of the DNS probe).
	labResolver, err := w.Net.AddHost(netip.MustParseAddr("128.100.50.53"), "resolver.measurement.utoronto.example", nil)
	if err != nil {
		return err
	}
	if err := w.serveResolver(labResolver, nil, MechAssignment{}); err != nil {
		return err
	}
	w.LabResolver = labResolver.Addr()

	for i, spec := range mechRoster {
		assigns := assignments[i]
		blocked := netsim.NewDomainSet(mechBlockedDomains(seed, i)...)

		if err := w.addAS(spec.asn, spec.asName, spec.country, spec.base+".0.0/16"); err != nil {
			return err
		}
		isp, err := w.Net.AddISP(spec.name)
		if err != nil {
			return err
		}
		tester, err := w.Net.AddHost(netip.MustParseAddr(spec.base+".20.20"), "", isp)
		if err != nil {
			return err
		}
		w.FieldHosts[spec.name] = tester

		mechs := &netsim.Mechanisms{}
		var dnsAssign MechAssignment
		for _, a := range assigns {
			switch a.Kind {
			case mechanism.KindDNS:
				dnsAssign = a
				sig, _ := dnsSigFor(a.Product)
				mechs.DNS = mechDNSFilter(sig, blocked)
			case mechanism.KindRST:
				sig, _ := rstSigFor(a.Product)
				mechs.Host = mechHostFilter(sig, blocked, sinks)
			case mechanism.KindSNI:
				sig, _ := sniSigFor(a.Product)
				mechs.SNI = mechSNIFilter(sig, blocked, sinks)
			}
		}
		isp.SetMechanisms(mechs)

		// DNS-capable deployments also run an in-ISP recursive resolver
		// the probes can query directly (resolver answers are forged the
		// same way the transparent resolution path is).
		if mechs.DNS != nil {
			resolver, err := w.Net.AddHost(netip.MustParseAddr(spec.base+".1.53"), "", isp)
			if err != nil {
				return err
			}
			if err := w.serveResolver(resolver, blocked, dnsAssign); err != nil {
				return err
			}
			w.FieldResolvers[spec.name] = resolver.Addr()
		}

		w.MechDeployments = append(w.MechDeployments, MechDeployment{
			ISP:            spec.name,
			Country:        spec.country,
			ASN:            spec.asn,
			Assignments:    assigns,
			BlockedDomains: mechBlockedDomains(seed, i),
		})
	}
	return nil
}

// mechDNSFilter builds the poisoned resolution path for one deployment.
func mechDNSFilter(sig mechanism.DNSSignature, blocked netsim.DomainSet) netsim.DNSFilter {
	return netsim.DNSFilterFunc(func(_ netip.Addr, name string) netsim.DNSVerdict {
		if !blocked.Contains(name) {
			return netsim.DNSVerdict{Action: netsim.DNSClean}
		}
		if sig.NXDomain {
			return netsim.DNSVerdict{Action: netsim.DNSNXDomain}
		}
		return netsim.DNSVerdict{Action: netsim.DNSSinkhole, Addr: sig.Sinkhole}
	})
}

// mechHostFilter builds the RST injector for one deployment. Traffic to
// a sinkhole passes — the DNS leg of a mixed deployment must be able to
// serve its block page.
func mechHostFilter(sig mechanism.RSTSignature, blocked netsim.DomainSet, sinks map[netip.Addr]bool) netsim.HostFilter {
	return netsim.HostFilterFunc(func(info netsim.DialInfo, host string) netsim.StreamVerdict {
		if sinks[info.Dst] || !blocked.Contains(host) {
			return netsim.StreamVerdict{Action: netsim.StreamPass}
		}
		return netsim.StreamVerdict{
			Action:        netsim.StreamReset,
			TTL:           sig.TTL,
			Window:        sig.Window,
			Bidirectional: sig.Bidirectional,
		}
	})
}

// mechSNIFilter builds the TLS filter for one deployment. A hello that
// omits server_name (the ESNI-style probe) evades products without
// destination-IP fallback; products with BlocksWithoutSNI fall back to
// the context the injector has (the dialed hostname).
func mechSNIFilter(sig mechanism.SNISignature, blocked netsim.DomainSet, sinks map[netip.Addr]bool) netsim.SNIFilter {
	return netsim.SNIFilterFunc(func(info netsim.DialInfo, sni string, present bool) netsim.StreamVerdict {
		if sinks[info.Dst] {
			return netsim.StreamVerdict{Action: netsim.StreamPass}
		}
		if !present && !sig.BlocksWithoutSNI {
			return netsim.StreamVerdict{Action: netsim.StreamPass}
		}
		if !blocked.Contains(sni) {
			return netsim.StreamVerdict{Action: netsim.StreamPass}
		}
		if sig.Drop {
			return netsim.StreamVerdict{Action: netsim.StreamDrop}
		}
		return netsim.StreamVerdict{Action: netsim.StreamReset, TTL: sig.RSTTTL, Window: sig.RSTWindow}
	})
}

// serveSinkhole hosts one product's sinkhole at its quirk address,
// serving that product's block page for whatever domain the poisoned
// client asks for.
func (w *World) serveSinkhole(sig mechanism.DNSSignature, catFor map[string]string) error {
	h, err := w.Net.AddHost(sig.Sinkhole, "", nil)
	if err != nil {
		return err
	}
	product := sig.Product
	srv := &httpwire.Server{Handler: httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		host := strings.ToLower(req.Host())
		if i := strings.IndexByte(host, ':'); i >= 0 {
			host = host[:i]
		}
		body := sinkholePage(product, host, catFor[host])
		hdr := httpwire.NewHeader("Content-Type", "text/html")
		return httpwire.NewResponse(403, hdr, []byte(body))
	})}
	_, err = h.Serve(80, netsim.Public, srv)
	return err
}

// sinkholePage renders the product-marked block page a sinkhole serves —
// the markers blockpage.DefaultPatterns attributes, plus the category
// paragraph the classifier extracts.
func sinkholePage(product, domain, category string) string {
	if category == "" {
		category = "uncategorized"
	}
	switch product {
	case mechanism.ProductNetsweeper:
		return fmt.Sprintf(`<html><head><title>Web Page Blocked</title></head><body>
<h1>This page has been denied</h1>
<p>Access to %s is not permitted on this network.</p>
<p>Category: %s</p>
<p>Powered by Netsweeper</p>
</body></html>`, domain, category)
	case mechanism.ProductBlueCoat:
		return fmt.Sprintf(`<html><head><title>Access Denied</title></head><body>
<p>Your request was denied because of its content categorization.</p>
<p>Category: %s</p>
<p>Host: %s</p>
</body></html>`, category, domain)
	default:
		return fmt.Sprintf(`<html><body><p>Blocked: %s</p><p>Category: %s</p></body></html>`, domain, category)
	}
}

// serveResolver runs a TCP DNS resolver on h:53. With a nil blocked set
// it answers honestly; otherwise blocked names get the deployment's
// forged answer and everything else the truth.
func (w *World) serveResolver(h *netsim.Host, blocked netsim.DomainSet, assign MechAssignment) error {
	var sig mechanism.DNSSignature
	if blocked != nil {
		sig, _ = dnsSigFor(assign.Product)
	}
	resolve := mechanism.Resolve(func(name string) (int, []mechanism.Answer) {
		name = strings.ToLower(strings.TrimSuffix(name, "."))
		if blocked != nil && blocked.Contains(name) {
			if sig.NXDomain {
				return mechanism.RCodeNXDomain, nil
			}
			return mechanism.RCodeNoError, []mechanism.Answer{{Name: name, TTL: sig.TTL, Addr: sig.Sinkhole}}
		}
		addr, err := w.Net.Resolve(name)
		if err != nil {
			return mechanism.RCodeNXDomain, nil
		}
		return mechanism.RCodeNoError, []mechanism.Answer{{Name: name, TTL: cleanDNSTTL, Addr: addr}}
	})
	_, err := h.Serve(53, netsim.Public, resolve)
	return err
}

// serveTLSResponder runs the minimal TLS first-flight responder the SNI
// probes need on h:443: read one ClientHello, answer one ServerHello.
// Anything that is not TLS is closed immediately (the banner scanner's
// HTTP probes must not hang here).
func serveTLSResponder(h *netsim.Host) error {
	_, err := h.Serve(443, netsim.Public, netsim.HandlerFunc(func(c net.Conn) {
		defer c.Close()
		var buf []byte
		tmp := make([]byte, 2048)
		for {
			if len(buf) > 0 && buf[0] != mechanism.RecordHandshake {
				return
			}
			if n, ok := mechanism.RecordLength(buf); ok && len(buf) >= n {
				break
			}
			if len(buf) > 1<<16 {
				return
			}
			n, err := c.Read(tmp)
			buf = append(buf, tmp[:n]...)
			if err != nil {
				return
			}
		}
		if _, _, err := mechanism.ParseClientHello(buf); err != nil {
			return
		}
		c.Write(mechanism.BuildServerHello()) //nolint:errcheck // peer may be gone
	}))
	return err
}

// MechanismSurveyTarget pairs one mechanism deployment's location with
// the measurement results probed from inside it — the mechanism analog
// of TargetDiscovery.
type MechanismSurveyTarget struct {
	ISP     string
	Country string
	ASN     int
	Results []measurement.MechanismResult
}

// MechanismRosterISPs lists the mechanism roster's ISP names in roster
// order, without building a world (request validation in fmserve).
func MechanismRosterISPs() []string {
	out := make([]string, len(mechRoster))
	for i, spec := range mechRoster {
		out[i] = spec.name
	}
	return out
}

// RunMechanismSurvey probes every mechanism-censoring ISP's blocked
// domains with the per-mechanism probe battery and returns one target per
// deployment, in roster order. The world must have been built with
// Options.Mechanisms.
func (w *World) RunMechanismSurvey(ctx context.Context) ([]MechanismSurveyTarget, error) {
	return w.RunMechanismSurveyFor(ctx, nil)
}

// RunMechanismSurveyFor restricts the survey to the named ISPs (empty =
// all deployments).
func (w *World) RunMechanismSurveyFor(ctx context.Context, isps []string) ([]MechanismSurveyTarget, error) {
	if len(w.MechDeployments) == 0 {
		return nil, fmt.Errorf("world: mechanism survey requires a world built with Options.Mechanisms")
	}
	want := make(map[string]bool, len(isps))
	for _, isp := range isps {
		want[isp] = true
	}
	var out []MechanismSurveyTarget
	for _, d := range w.MechDeployments {
		if len(want) > 0 && !want[d.ISP] {
			continue
		}
		client, err := w.MeasureClient(d.ISP)
		if err != nil {
			return nil, err
		}
		urls := make([]string, 0, len(d.BlockedDomains))
		for _, dom := range d.BlockedDomains {
			urls = append(urls, "http://"+dom+"/")
		}
		out = append(out, MechanismSurveyTarget{
			ISP:     d.ISP,
			Country: d.Country,
			ASN:     d.ASN,
			Results: client.TestListMechanisms(ctx, urls),
		})
	}
	return out, nil
}
