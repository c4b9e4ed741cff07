package world

import (
	"bufio"
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"

	"filtermap/internal/fingerprint"
	"filtermap/internal/identify"
	"filtermap/internal/netsim"
)

// Pinned synthetic-population sizes at the default world seed (0).
// These are pure functions of (seed, profile); a change here means the
// derivation hash moved and every scale golden is invalid.
const (
	cityHostsSeed0   = 1526
	nationHostsSeed0 = 105926
)

func buildScaleWorld(t *testing.T, opts Options) *World {
	t.Helper()
	w, err := Build(opts)
	if err != nil {
		t.Fatalf("Build(%+v): %v", opts, err)
	}
	t.Cleanup(w.Close)
	return w
}

// TestScaleDefaultAddsNothing pins the compatibility contract: the
// default profile ("" and its synonym "small") attaches no realm, so
// every existing golden stays byte-for-byte.
func TestScaleDefaultAddsNothing(t *testing.T) {
	base := buildScaleWorld(t, Options{})
	small := buildScaleWorld(t, Options{Scale: ScaleSmall})

	if got := base.ScaleHosts(); got != 0 {
		t.Fatalf("default world ScaleHosts = %d, want 0", got)
	}
	if got := small.ScaleHosts(); got != 0 {
		t.Fatalf(`Scale:"small" world ScaleHosts = %d, want 0`, got)
	}
	a, b := base.Net.Addrs(), small.Net.Addrs()
	if len(a) != len(b) {
		t.Fatalf("address space diverged: %d vs %d hosts", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("Addrs[%d] = %s vs %s", i, a[i], b[i])
		}
	}
}

func TestScaleUnknownProfileFails(t *testing.T) {
	if _, err := Build(Options{Scale: "galaxy"}); err == nil ||
		!strings.Contains(err.Error(), "unknown scale") {
		t.Fatalf("Build(Scale: galaxy) = %v, want unknown-scale error", err)
	}
}

// TestScaleCityPopulation pins the city profile's derived population
// and confirms the realm registers nothing at Build: the synthetic
// addresses appear in scan sweeps, but no synthetic host is registered.
func TestScaleCityPopulation(t *testing.T) {
	base := buildScaleWorld(t, Options{})
	city := buildScaleWorld(t, Options{Scale: ScaleCity})

	if got := city.ScaleISPs(); got != 48 {
		t.Fatalf("city ScaleISPs = %d, want 48", got)
	}
	if got := city.ScaleHosts(); got != cityHostsSeed0 {
		t.Fatalf("city ScaleHosts = %d, want %d (derivation hash moved?)", got, cityHostsSeed0)
	}
	if got, want := len(city.Net.Addrs()), len(base.Net.Addrs())+cityHostsSeed0; got != want {
		t.Fatalf("city Addrs = %d entries, want %d (handcrafted + synthetic)", got, want)
	}
	// Enumerating addresses must not register hosts.
	for _, addr := range city.scale.Addrs()[:8] {
		if _, ok := city.Net.Host(addr); ok {
			t.Fatalf("synthetic host %s registered before first dial", addr)
		}
	}
}

// TestScaleNationPopulation pins the acceptance-scale population:
// >= 100k hosts across 2200 ISPs, and a construction cheap enough to
// run in every test pass because no synthetic host is registered.
func TestScaleNationPopulation(t *testing.T) {
	w := buildScaleWorld(t, Options{Scale: ScaleNation})
	if got := w.ScaleISPs(); got != 2200 {
		t.Fatalf("nation ScaleISPs = %d, want 2200", got)
	}
	if got := w.ScaleHosts(); got != nationHostsSeed0 {
		t.Fatalf("nation ScaleHosts = %d, want %d (derivation hash moved?)", got, nationHostsSeed0)
	}
	if w.ScaleHosts() < 100_000 {
		t.Fatalf("nation ScaleHosts = %d, want >= 100000", w.ScaleHosts())
	}
}

// TestScaleAnswersBeforeMaterialization is the realm contract: DNS,
// reverse DNS, geolocation and whois answer for a synthetic host from
// derivations, a dial to a generic host registers nothing, and the
// first dial to a console registers exactly the console, whose ISP
// and AS match what whois answered before it existed.
func TestScaleAnswersBeforeMaterialization(t *testing.T) {
	w := buildScaleWorld(t, Options{Scale: ScaleCity})
	r := w.scale
	ctx := context.Background()
	registered := len(w.Net.Hosts())

	// ISP 0 carries every role: gateway, console (0%12==0) and decoy
	// (0%8==0).
	gw := r.hostAddr(0, 0)
	name := r.hostName(0, 0)
	if name == "" || !strings.HasPrefix(name, "gw.synth0000.example.") {
		t.Fatalf("gateway name = %q", name)
	}
	addr, err := w.Net.Resolve(name)
	if err != nil || addr != gw {
		t.Fatalf("Resolve(%s) = %s, %v; want %s", name, addr, err, gw)
	}
	if rev, ok := w.Net.ReverseLookup(gw); !ok || rev != name {
		t.Fatalf("ReverseLookup(%s) = %q, %v", gw, rev, ok)
	}
	country, ok := w.GeoDB.Country(gw)
	if !ok || country != r.ispCountry(0) {
		t.Fatalf("Country(%s) = %q, %v; want %q", gw, country, ok, r.ispCountry(0))
	}
	as, ok := w.ASTable.Lookup(gw)
	if !ok || as.ASN != r.ispASN(0) || as.Country != r.ispCountry(0) {
		t.Fatalf("whois(%s) = %+v, %v", gw, as, ok)
	}

	// Generic hosts: the dark gateway refuses, an open host serves its
	// banner, and neither becomes a Host.
	if _, err := w.ScanVantage.Dial(ctx, gw, 80); !errors.Is(err, netsim.ErrConnRefused) {
		t.Fatalf("dial to the dark gateway: %v, want refused", err)
	}
	j := 3
	for r.genericDark(0, j) {
		j++
	}
	c, err := w.ScanVantage.Dial(ctx, r.hostAddr(0, j), r.genericPort(0, j))
	if err != nil {
		t.Fatalf("dial generic host %s: %v", r.hostAddr(0, j), err)
	}
	line, err := bufio.NewReader(c).ReadString('\n')
	c.Close()
	if err != nil || line != "HTTP/1.0 200 OK\r\n" {
		t.Fatalf("generic banner = %q, %v", line, err)
	}
	if got := len(w.Net.Hosts()); got != registered {
		t.Fatalf("generic dials registered %d hosts", got-registered)
	}

	// The console: its first dial registers exactly one host.
	console := r.hostAddr(0, 1)
	c, err = w.ScanVantage.Dial(ctx, console, 80)
	if err != nil {
		t.Fatalf("dial console %s: %v", console, err)
	}
	c.Close()
	if got := len(w.Net.Hosts()); got != registered+1 {
		t.Fatalf("console dial registered %d hosts, want 1", got-registered)
	}
	host, ok := w.Net.Host(console)
	if !ok {
		t.Fatal("console dial did not register the console")
	}
	if host.Name() != r.hostName(0, 1) {
		t.Fatalf("console name = %q, want %q", host.Name(), r.hostName(0, 1))
	}
	if got := host.ISP().AS.Number; got != as.ASN {
		t.Fatalf("console ASN = %d, whois said %d", got, as.ASN)
	}

	// Whois and geolocation answer the same once the console exists.
	if got, ok := w.GeoDB.Country(console); !ok || got != country {
		t.Fatalf("console Country = %q, gateway was %q", got, country)
	}
	if got, ok := w.ASTable.Lookup(console); !ok || got != as {
		t.Fatalf("console whois = %+v, gateway was %+v", got, as)
	}
}

// TestScaleDerivationStability: the synthetic population is a pure
// function of the world seed — same seed, same world; different seed,
// different world.
func TestScaleDerivationStability(t *testing.T) {
	a := buildScaleWorld(t, Options{Scale: ScaleCity})
	b := buildScaleWorld(t, Options{Scale: ScaleCity})
	aAddrs, bAddrs := a.scale.Addrs(), b.scale.Addrs()
	if len(aAddrs) != len(bAddrs) {
		t.Fatalf("same seed, different populations: %d vs %d", len(aAddrs), len(bAddrs))
	}
	for i := range aAddrs {
		if aAddrs[i] != bAddrs[i] {
			t.Fatalf("same seed, Addrs[%d] = %s vs %s", i, aAddrs[i], bAddrs[i])
		}
	}
	for i := 0; i < a.scale.profile.isps; i++ {
		if a.scale.ispName(i) != b.scale.ispName(i) {
			t.Fatalf("same seed, ISP %d named %q vs %q", i, a.scale.ispName(i), b.scale.ispName(i))
		}
	}

	c := buildScaleWorld(t, Options{Scale: ScaleCity, Seed: 7})
	same := len(c.scale.Addrs()) == len(aAddrs)
	if same {
		for i := 0; i < a.scale.profile.isps; i++ {
			if a.scale.ispCountry(i) != c.scale.ispCountry(i) {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seed 7 derived the identical synthetic population")
	}
}

// scaleProductNames maps a console product key to the display name
// fingerprint validation reports it under.
var scaleProductNames = map[string]string{
	"bluecoat":    fingerprint.ProductBlueCoat,
	"netsweeper":  fingerprint.ProductNetsweeper,
	"websense":    fingerprint.ProductWebsense,
	"smartfilter": fingerprint.ProductSmartFilter,
}

// installationLine flattens the fields the ground truth pins.
func installationLine(inst identify.Installation) string {
	return fmt.Sprintf("%s name=%s products=%s cc=%s asn=%d",
		inst.Addr, inst.Hostname, strings.Join(inst.Products, ","), inst.Country, inst.ASN)
}

// TestScaleIdentifyGroundTruth is the identification oracle at scale
// (§3, Table 2): the report must hold exactly the default world's
// installations plus one per synthetic console, each validated as the
// console's product and mapped to its ISP's country and ASN. Keyword
// decoys surface in search, so none of them may survive validation.
// The nation run takes about a second; it is skipped only under the
// race detector.
func TestScaleIdentifyGroundTruth(t *testing.T) {
	ctx := context.Background()
	base := buildScaleWorld(t, Options{})
	baseRep, err := base.RunIdentification(ctx)
	if err != nil {
		t.Fatal(err)
	}
	for _, scale := range []struct {
		name     string
		consoles int
	}{{ScaleCity, 4}, {ScaleNation, 35}} {
		t.Run(scale.name, func(t *testing.T) {
			if scale.name == ScaleNation && raceEnabled {
				t.Skip("nation identify is too slow under the race detector")
			}
			w := buildScaleWorld(t, Options{Scale: scale.name})
			rep, err := w.RunIdentification(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if rep.Degraded {
				t.Fatalf("identify degraded: %+v %+v", rep.QueryErrors, rep.Errors)
			}
			r := w.scale
			want := make(map[netip.Addr]string)
			for _, inst := range baseRep.Installations {
				want[inst.Addr] = installationLine(inst)
			}
			decoys := make(map[netip.Addr]bool)
			consoles := 0
			for i := 0; i < r.profile.isps; i++ {
				if r.hasConsole(i) {
					consoles++
					addr := r.hostAddr(i, 1)
					want[addr] = installationLine(identify.Installation{
						Addr:     addr,
						Hostname: r.hostName(i, 1),
						Products: []string{scaleProductNames[r.consoleProduct(i)]},
						Country:  r.ispCountry(i),
						ASN:      r.ispASN(i),
					})
				}
				if r.hasDecoy(i) {
					decoys[r.hostAddr(i, 2)] = true
				}
			}
			if consoles != scale.consoles {
				t.Fatalf("%d console ISPs, want %d", consoles, scale.consoles)
			}
			for _, inst := range rep.Installations {
				if decoys[inst.Addr] {
					t.Errorf("keyword decoy %s validated as %v", inst.Addr, inst.Products)
				}
				line, ok := want[inst.Addr]
				if !ok {
					t.Errorf("unexpected installation %s", installationLine(inst))
					continue
				}
				if got := installationLine(inst); got != line {
					t.Errorf("installation diverged:\n  got:  %s\n  want: %s", got, line)
				}
				delete(want, inst.Addr)
			}
			for _, line := range want {
				t.Errorf("missing installation %s", line)
			}
			if got, wantN := len(rep.Installations), len(baseRep.Installations)+scale.consoles; got != wantN {
				t.Fatalf("%d installations, want %d (%d handcrafted + %d consoles)",
					got, wantN, len(baseRep.Installations), scale.consoles)
			}
		})
	}
}

// TestCannedHandlerLateRequest writes the request only after the canned
// handler has returned. The prober must still be able to send it and
// read the whole response, whichever side moved first.
func TestCannedHandlerLateRequest(t *testing.T) {
	nw := netsim.New(nil)
	defer nw.Close()
	srv, err := nw.AddHost(netip.MustParseAddr("203.0.113.1"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	src, err := nw.AddHost(netip.MustParseAddr("203.0.113.2"), "", nil)
	if err != nil {
		t.Fatal(err)
	}
	resp := cannedResponse("nginx/1.2.1", "Welcome to nginx!", "<h1>Welcome to nginx!</h1>")
	canned := cannedHandler(resp)
	returned := make(chan struct{})
	if _, err := srv.Serve(80, netsim.Public, netsim.HandlerFunc(func(conn net.Conn) {
		canned.ServeConn(conn)
		close(returned)
	})); err != nil {
		t.Fatal(err)
	}
	c, err := src.Dial(context.Background(), srv.Addr(), 80)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	<-returned
	if _, err := io.WriteString(c, "GET / HTTP/1.0\r\nHost: 203.0.113.1\r\n\r\n"); err != nil {
		t.Fatalf("request written after the handler returned: %v", err)
	}
	got, err := io.ReadAll(c)
	if err != nil {
		t.Fatalf("read response: %v", err)
	}
	if !bytes.Equal(got, resp) {
		t.Fatalf("response = %q, want %q", got, resp)
	}
}
