package world

import (
	"bytes"
	"context"
	"io"
	"net"
	"net/netip"
	"strings"
	"testing"

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
// and confirms construction is lazy: the synthetic addresses appear in
// scan sweeps, but no synthetic host is registered before first dial.
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
	// Lazy: enumerating addresses must not register hosts.
	for _, addr := range city.scale.Addrs()[:8] {
		if _, ok := city.Net.Host(addr); ok {
			t.Fatalf("synthetic host %s registered before first dial", addr)
		}
	}
}

// TestScaleNationPopulation pins the acceptance-scale population:
// >= 100k hosts across 2200 ISPs, and a construction cheap enough to
// run in every test pass because nothing is materialized.
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

// TestScaleAnswersBeforeMaterialization is the lazy-world contract for
// the non-dial surfaces: DNS, reverse DNS, geolocation and whois answer
// identically for a synthetic host whether or not its ISP has been
// materialized.
func TestScaleAnswersBeforeMaterialization(t *testing.T) {
	w := buildScaleWorld(t, Options{Scale: ScaleCity})
	r := w.scale

	// ISP 0 carries every role: gateway, console (0%12==0) and decoy
	// (0%8==0).
	gw := r.hostAddr(0, 0)
	name := r.hostName(0, 0)
	if name == "" || !strings.HasPrefix(name, "gw.synth0000.example.") {
		t.Fatalf("gateway name = %q", name)
	}

	// Cold answers, no host registered.
	addr, err := w.Net.Resolve(name)
	if err != nil || addr != gw {
		t.Fatalf("cold Resolve(%s) = %s, %v; want %s", name, addr, err, gw)
	}
	rev, ok := w.Net.ReverseLookup(gw)
	if !ok || rev != name {
		t.Fatalf("cold ReverseLookup(%s) = %q, %v", gw, rev, ok)
	}
	coldCountry, ok := w.GeoDB.Country(gw)
	if !ok || coldCountry != r.ispCountry(0) {
		t.Fatalf("cold Country(%s) = %q, %v; want %q", gw, coldCountry, ok, r.ispCountry(0))
	}
	coldAS, ok := w.ASTable.Lookup(gw)
	if !ok || coldAS.ASN != r.ispASN(0) || coldAS.Country != r.ispCountry(0) {
		t.Fatalf("cold whois(%s) = %+v, %v", gw, coldAS, ok)
	}
	if _, registered := w.Net.Host(gw); registered {
		t.Fatal("lookups materialized the host")
	}

	// Materialize ISP 0 through the dial path (the gateway is dark, so
	// the dial itself fails — materialization must still happen first).
	src := w.Net.Hosts()[0]
	if c, err := src.Dial(context.Background(), gw, 80); err == nil {
		c.Close()
		t.Fatal("dial to the dark gateway succeeded")
	}
	host, registered := w.Net.Host(gw)
	if !registered {
		t.Fatal("dial did not materialize the gateway's ISP")
	}
	if host.Name() != name {
		t.Fatalf("materialized name = %q, want %q", host.Name(), name)
	}
	if got := host.ISP().AS.Number; got != coldAS.ASN {
		t.Fatalf("materialized ASN = %d, whois said %d", got, coldAS.ASN)
	}

	// Warm answers must be byte-identical to the cold ones.
	warmCountry, ok := w.GeoDB.Country(gw)
	if !ok || warmCountry != coldCountry {
		t.Fatalf("warm Country = %q, cold was %q", warmCountry, coldCountry)
	}
	warmAS, ok := w.ASTable.Lookup(gw)
	if !ok || warmAS != coldAS {
		t.Fatalf("warm whois = %+v, cold was %+v", warmAS, coldAS)
	}
	if rev, ok := w.Net.ReverseLookup(gw); !ok || rev != name {
		t.Fatalf("warm ReverseLookup = %q, %v", rev, ok)
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
	if _, err := srv.ServeHandler(80, netsim.Public, netsim.HandlerFunc(func(conn net.Conn, info netsim.DialInfo) {
		canned.ServeConn(conn, info)
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
