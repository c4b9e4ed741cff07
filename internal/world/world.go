// Package world assembles the simulated Internet the experiments run on:
// the paper's countries, ISPs and AS numbers, the four vendors' master
// databases and cloud services, the filtering deployments with their
// policies, sync schedules and license models, researcher infrastructure
// (lab server, scan vantage, test-site hosting), and the background
// installations behind Figure 1.
//
// Everything is parameterized by a manual clock and explicit seeds, so
// each build of the world replays the paper's timeline identically.
package world

import (
	"context"
	"fmt"
	"net"
	"net/netip"
	"sync"
	"time"

	"filtermap/internal/categorydb"
	"filtermap/internal/engine"
	"filtermap/internal/fingerprint"
	"filtermap/internal/geo"
	"filtermap/internal/httpwire"
	"filtermap/internal/measurement"
	"filtermap/internal/netsim"
	"filtermap/internal/scanner"
	"filtermap/internal/simclock"
	"filtermap/internal/urllist"
)

// ISP names used throughout (Table 3).
const (
	ISPEtisalat = "Etisalat"
	ISPDu       = "Du"
	ISPOoredoo  = "Ooredoo"
	ISPBayanat  = "Bayanat Al-Oula"
	ISPNournet  = "Nournet"
	ISPYemenNet = "YemenNet"
)

// AS numbers from Table 3.
const (
	ASNEtisalat = 5384
	ASNDu       = 15802
	ASNOoredoo  = 42298
	ASNBayanat  = 48237
	ASNNournet  = 29684
	ASNYemenNet = 12486
)

// Vendor cloud service hostnames.
const (
	HostSiteReview    = "sitereview.bluecoat.example"
	HostTrustedSource = "trustedsource.mcafee.example"
	HostTestASite     = "www.netsweeper.example"
	HostDenyPageTests = "denypagetests.netsweeper.com"
	HostCfAuth        = "www.cfauth.com"
	HostWhois         = "whois.cymru.example"
	HostLab           = "lab.measurement.utoronto.example"
	HostScanVantage   = "scan1.research.example"
)

// Options configures world construction.
type Options struct {
	// Start is the clock start (default simclock.Epoch).
	Start time.Time
	// Seed drives the deterministic domain generator.
	Seed int64

	// HideConsoles installs every product's network faces with ISPOnly
	// visibility — Table 5's first evasion tactic. Identification stops
	// finding anything; confirmation still works.
	HideConsoles bool
	// ScrubHeaders strips brand evidence from product responses — Table
	// 5's second evasion tactic. Signatures stop matching; confirmation
	// still works via unattributed field/lab divergence.
	ScrubHeaders bool
	// FilterSubmissions installs vendor-side submission filters that
	// disregard submissions from the researchers' lab IP or e-mail
	// domain — Table 5's third evasion tactic.
	FilterSubmissions bool
	// DisableDuSyncLag gives Du the same frequent sync schedule as the
	// other deployments, turning Table 3's 5/6 into 6/6 (an ablation).
	DisableDuSyncLag bool

	// ChaosSeed, when nonzero, installs a deterministic fault-injection
	// plan on the simulated network (netsim.FaultPlan): the same seed
	// yields the same failure sequence at any worker count. Chaos mode
	// also installs a default retry policy and circuit breaker on the
	// engine config when the caller set none, so the hardening paths
	// actually run.
	//
	// Both chaos fields are omitempty so chaos-free configurations keep
	// the ConfigHash they had before fault injection existed (snapshot
	// IDs and cache keys are derived from it).
	ChaosSeed uint64 `json:",omitempty"`
	// FaultProfile names the fault plan ChaosSeed parameterizes (see
	// netsim.FaultProfiles; "" means netsim.DefaultFaultProfile).
	FaultProfile string `json:",omitempty"`

	// Mechanisms, when non-nil, adds the multi-mechanism censorship
	// roster: ISPs blocking via DNS poisoning, TCP RST injection and
	// SNI-based TLS filtering (see mechanisms.go). Omitempty for the same
	// reason as the chaos fields: mechanism-free worlds keep the
	// ConfigHash (and thus snapshot IDs and cache keys) they always had.
	Mechanisms *MechanismOptions `json:",omitempty"`

	// Scale selects the synthetic population profile ("", "small",
	// "city", "nation" — see scale.go). The default adds nothing, so
	// every pre-scale golden and ConfigHash is preserved; non-default
	// values participate in the hash, making scale part of snapshot IDs
	// and cache keys.
	Scale string `json:",omitempty"`
}

// World is the assembled simulation.
type World struct {
	Opts  Options
	Clock *simclock.Manual
	Net   *netsim.Network

	// Engine is the shared execution configuration every pooled pipeline
	// stage inherits (workers, timeout, retry, stats, observer). Build
	// always installs a Stats registry so Stats() is never nil.
	Engine engine.Config

	GeoDB   *geo.DB
	ASTable *geo.ASTable
	Dir     *urllist.Directory
	Gen     *urllist.Generator

	// Vendor master databases.
	BlueCoatDB    *categorydb.DB
	SmartFilterDB *categorydb.DB
	NetsweeperDB  *categorydb.DB
	WebsenseDB    *categorydb.DB

	// Vantages.
	Lab         *netsim.Host
	ScanVantage *netsim.Host
	// FieldHosts maps ISP name -> in-country tester host.
	FieldHosts map[string]*netsim.Host
	// ProxyVantage is an out-of-band submission origin (the Tor/proxy
	// countermeasure of §6.2).
	ProxyVantage *netsim.Host

	// FieldResolvers maps ISP name -> in-ISP recursive resolver address
	// (mechanism deployments only; the DNS probes query it directly).
	FieldResolvers map[string]netip.Addr
	// LabResolver is the honest comparison resolver, valid only when
	// mechanisms are enabled.
	LabResolver netip.Addr
	// MechDeployments is the mechanism roster's ground truth, in roster
	// order (empty without Options.Mechanisms).
	MechDeployments []MechDeployment

	// hostAllocator state for researcher test sites.
	nextSiteIP netip.Addr
	hostingISP *netsim.ISP

	// scale is the synthetic population, answered from derivations (nil
	// at the default profile).
	scale *scaleRealm

	// asns holds every AS number addAS registered.
	asns sync.Map

	// clients records every measurement client MeasureClient handed out,
	// so Close can release the keep-alive connections their pools hold.
	// One entry per MeasureClient call over the world's life.
	clientsMu sync.Mutex
	clients   []*measurement.Client

	// Deployment handles for tests and ablations.
	YemenLicense *licenseHandle
}

// licenseHandle exposes the YemenNet license model for ablations.
type licenseHandle struct {
	MaxConcurrent int
	Load          func(time.Time) int
}

// Build constructs the default world. Engine options (engine.WithWorkers,
// engine.WithObserver, engine.WithRetryPolicy, ...) tune the shared
// execution substrate; omitting them keeps the defaults.
func Build(opts Options, engOpts ...engine.Option) (*World, error) {
	clock := simclock.NewManual(opts.Start)
	engCfg := engine.NewConfig(engOpts...)
	if engCfg.Stats == nil {
		engCfg.Stats = engine.NewStats()
	}
	if opts.ChaosSeed != 0 {
		// Chaos without retries or a breaker would just shrink coverage;
		// give the hardening machinery its defaults unless the caller
		// configured a retry policy of its own.
		if engCfg.Retry.MaxAttempts == 0 {
			engCfg.Retry = engine.DefaultRetryPolicy()
		}
		// The limit matches the retry budget so the breaker never cuts
		// an item's own retry loop short (a fault recovering on the last
		// attempt must get that attempt); it only suppresses re-testing
		// targets that already burned a full loop.
		engCfg.Breaker = engine.NewBreaker(engCfg.Retry.MaxAttempts)
	}
	// Retry backoffs wait on the virtual clock, not the wall clock.
	engCfg.Sleep = func(_ context.Context, d time.Duration) { clock.Advance(d) }
	w := &World{
		Opts:           opts,
		Clock:          clock,
		Net:            netsim.New(clock),
		Engine:         engCfg,
		GeoDB:          &geo.DB{},
		ASTable:        &geo.ASTable{},
		Dir:            urllist.NewDirectory(),
		Gen:            urllist.NewGenerator(opts.Seed + 1),
		FieldHosts:     make(map[string]*netsim.Host),
		FieldResolvers: make(map[string]netip.Addr),
	}

	w.BlueCoatDB = newBlueCoatDB(clock)
	w.SmartFilterDB = newSmartFilterDB(clock)
	w.NetsweeperDB = newNetsweeperDB(clock, w.Dir)
	w.WebsenseDB = newWebsenseDB(clock)

	if err := w.buildInfrastructure(); err != nil {
		return nil, fmt.Errorf("world: infrastructure: %w", err)
	}
	if err := w.buildListSites(); err != nil {
		return nil, fmt.Errorf("world: list sites: %w", err)
	}
	if err := w.buildLinkedWeb(); err != nil {
		return nil, fmt.Errorf("world: linked web: %w", err)
	}
	if err := w.buildDeployments(); err != nil {
		return nil, fmt.Errorf("world: deployments: %w", err)
	}
	if err := w.buildBackgroundInstallations(); err != nil {
		return nil, fmt.Errorf("world: background installations: %w", err)
	}
	if err := w.buildScale(); err != nil {
		return nil, err
	}
	if opts.Mechanisms != nil {
		if err := w.buildMechanisms(); err != nil {
			return nil, fmt.Errorf("world: mechanisms: %w", err)
		}
	}
	if opts.FilterSubmissions {
		w.installSubmissionFilters()
	}
	if opts.ChaosSeed != 0 {
		// Installed last so world construction itself (which performs no
		// dials) is never perturbed — only measurement traffic is.
		plan, err := netsim.NewFaultProfile(opts.FaultProfile, opts.ChaosSeed)
		if err != nil {
			return nil, fmt.Errorf("world: %w", err)
		}
		w.Net.SetFaultPlan(plan)
	}
	return w, nil
}

// Close shuts the simulated network down, first closing every pooled
// keep-alive connection its measurement clients parked: unbinding the
// ports alone leaves those connections, and the product goroutines
// serving them, alive.
func (w *World) Close() {
	w.clientsMu.Lock()
	clients := w.clients
	w.clients = nil
	w.clientsMu.Unlock()
	for _, c := range clients {
		c.CloseIdle()
	}
	w.Net.Close()
}

// Stats returns the engine metrics registry shared by every pooled stage
// this world runs (scan, search, validate, whois, geo, measure,
// characterize, campaign). Never nil.
func (w *World) Stats() *engine.Stats { return w.Engine.Stats }

// Wait advances the virtual clock.
func (w *World) Wait(d time.Duration) { w.Clock.Advance(d) }

// visibility returns the product-console visibility per the evasion
// options.
func (w *World) visibility() netsim.Visibility {
	if w.Opts.HideConsoles {
		return netsim.ISPOnly
	}
	return netsim.Public
}

// addAS registers an AS with the geolocation DB and whois table. The AS
// number must be unused.
func (w *World) addAS(number int, name, country, cidr string) error {
	if number <= 0 {
		return fmt.Errorf("world: invalid AS number %d", number)
	}
	prefix, err := netip.ParsePrefix(cidr)
	if err != nil {
		return err
	}
	if _, dup := w.asns.LoadOrStore(number, true); dup {
		return fmt.Errorf("world: AS%d already registered", number)
	}
	w.GeoDB.Add(prefix, country)
	w.ASTable.Add(geo.ASRecord{ASN: number, Name: name, Country: country, Prefix: prefix})
	return nil
}

// FieldVantage returns the in-country measurement vantage for an ISP.
func (w *World) FieldVantage(isp string) (*measurement.Vantage, error) {
	h, ok := w.FieldHosts[isp]
	if !ok {
		return nil, fmt.Errorf("world: no field host in ISP %q", isp)
	}
	v := &measurement.Vantage{Name: "field:" + isp, Host: h}
	if r, ok := w.FieldResolvers[isp]; ok {
		v.Resolver = r
	}
	return v, nil
}

// LabVantage returns the Toronto lab vantage.
func (w *World) LabVantage() *measurement.Vantage {
	return &measurement.Vantage{Name: "lab:toronto", Host: w.Lab, Resolver: w.LabResolver}
}

// MeasureClient returns the dual-vantage client for an ISP.
func (w *World) MeasureClient(isp string) (*measurement.Client, error) {
	field, err := w.FieldVantage(isp)
	if err != nil {
		return nil, err
	}
	c := &measurement.Client{Field: field, Lab: w.LabVantage(), Config: w.Engine}
	w.clientsMu.Lock()
	w.clients = append(w.clients, c)
	w.clientsMu.Unlock()
	return c, nil
}

// LabClient returns an HTTP client dialing from the lab (the researchers'
// own IP — the one a vendor submission filter would key on).
func (w *World) LabClient() *httpwire.Client {
	return &httpwire.Client{Dial: w.Lab.Dialer(), Timeout: 10 * time.Second}
}

// ProxyClient returns an HTTP client dialing from the proxy vantage (the
// §6.2 countermeasure to submitter-IP filtering).
func (w *World) ProxyClient() *httpwire.Client {
	return &httpwire.Client{Dial: w.ProxyVantage.Dialer(), Timeout: 10 * time.Second}
}

// Scanner returns a banner scanner at the research vantage.
func (w *World) Scanner() *scanner.Scanner {
	return &scanner.Scanner{Vantage: w.ScanVantage, Config: w.Engine}
}

// Fingerprinter returns a fingerprint engine at the research vantage.
func (w *World) Fingerprinter() *fingerprint.Engine {
	return &fingerprint.Engine{Vantage: w.ScanVantage}
}

// WhoisClient returns a bulk whois client against the simulated Team
// Cymru service.
func (w *World) WhoisClient() *geo.WhoisClient {
	return &geo.WhoisClient{Dial: func(ctx context.Context) (net.Conn, error) {
		return w.ScanVantage.DialHost(ctx, HostWhois, geo.WhoisPort)
	}}
}
