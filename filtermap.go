// Package filtermap is a reproduction of "A Method for Identifying and
// Confirming the Use of URL Filtering Products for Censorship" (Dalek et
// al., IMC 2013).
//
// It provides, end to end, the paper's three pipelines:
//
//   - Identification (§3): scan an address space for banner keywords,
//     validate candidates with WhatWeb-style signatures, and map validated
//     URL-filter installations to countries and autonomous systems.
//   - Confirmation (§4): prove a specific product censors a specific ISP
//     by submitting researcher-controlled sites to the vendor's
//     categorization service and observing that exactly the submitted
//     subset becomes blocked.
//   - Characterization (§5): measure curated URL lists from in-country
//     vantage points and attribute blocked categories to products via
//     block-page classification.
//
// Because the paper's substrate is the 2012-2013 Internet, the package
// ships a deterministic simulated Internet (NewWorld) with working
// implementations of Blue Coat ProxySG/WebFilter, McAfee SmartFilter,
// Netsweeper and Websense, the ISPs of the paper's case studies, and the
// supporting services (banner search, whois, geolocation, vendor
// submission portals). The same pipelines operate over real sockets; the
// simulation is an interchangeable transport.
//
// Quick start:
//
//	w, err := filtermap.NewWorld(filtermap.Options{}, filtermap.WithWorkers(8))
//	if err != nil { ... }
//	defer w.Close()
//	outcomes, err := w.RunTable3(context.Background())
//	var r filtermap.Reporter
//	fmt.Print(r.Table3(outcomes))
//	fmt.Print(r.Stats(w.Stats().Snapshot()))
package filtermap

import (
	"filtermap/internal/characterize"
	"filtermap/internal/cluster"
	"filtermap/internal/confirm"
	"filtermap/internal/discovery"
	"filtermap/internal/engine"
	"filtermap/internal/identify"
	"filtermap/internal/monitor"
	"filtermap/internal/netsim"
	"filtermap/internal/plan"
	"filtermap/internal/report"
	"filtermap/internal/server"
	"filtermap/internal/store"
	"filtermap/internal/urllist"
	"filtermap/internal/world"
)

// World is the assembled simulated Internet with the paper's deployments.
type World = world.World

// Options configures world construction, including the Table 5 evasion
// scenarios.
type Options = world.Options

// Outcome is one confirmation case study result (one Table 3 row).
type Outcome = confirm.Outcome

// Campaign describes one confirmation case study.
type Campaign = confirm.Campaign

// IdentifyReport is the §3 pipeline output (Figure 1's content).
type IdentifyReport = identify.Report

// CharacterizeReport is one country's §5 output.
type CharacterizeReport = characterize.Report

// Discovery layer: the search-based blocked-URL crawler (see
// cmd/fmdiscover for the CLI surface, World.RunDiscovery to drive it).
type (
	// DiscoveryOptions configures World.RunDiscovery (target ISPs, round
	// and budget caps; zero values use the crawler defaults).
	DiscoveryOptions = world.DiscoveryOptions
	// TargetDiscovery pairs one characterization target with its crawl
	// report.
	TargetDiscovery = world.TargetDiscovery
	// DiscoveryReport is one vantage's full crawl outcome.
	DiscoveryReport = discovery.Report
	// URLList is a curated (or synthesized) measurement list; discovery
	// assembles its novel findings into one via DiscoveredList.
	URLList = urllist.List
)

// DiscoveredList assembles the targets' novel blocked URLs into the
// synthetic "discovered" theme list, deduplicated and sorted. Feed it to
// World.RunCharacterizationWithExtra to fold discoveries into Table 4.
func DiscoveredList(targets []TargetDiscovery) URLList {
	return world.DiscoveredList(targets)
}

// Mechanism layer: censorship beyond HTTP block pages (DNS poisoning,
// TCP RST injection, SNI filtering) — see World.RunMechanismSurvey.
type (
	// MechanismOptions enables the multi-mechanism deployments on a world
	// (Options.Mechanisms; nil keeps the HTTP-only world byte-identical).
	MechanismOptions = world.MechanismOptions
	// MechanismSurveyTarget is one surveyed ISP with its probe results.
	MechanismSurveyTarget = world.MechanismSurveyTarget
	// MechanismsDoc is the machine-readable mechanism survey.
	MechanismsDoc = report.MechanismsDoc
)

// Execution-substrate types re-exported from the shared engine, so callers
// can tune concurrency and observe progress without reaching into
// internal packages.
type (
	// Option tunes the shared execution substrate (worker pool, retry,
	// observability) at world construction.
	Option = engine.Option
	// RetryPolicy bounds per-item retries in pooled stages.
	RetryPolicy = engine.RetryPolicy
	// Observer receives structured progress events from pooled stages.
	Observer = engine.Observer
	// ObserverFunc adapts a function to Observer.
	ObserverFunc = engine.ObserverFunc
	// Event is one progress notification (stage, item, attempt, latency).
	Event = engine.Event
	// Stats accumulates per-stage counters and latency histograms.
	Stats = engine.Stats
	// StatsSnapshot is a point-in-time view of all recorded stages.
	StatsSnapshot = engine.Snapshot
)

// WithWorkers bounds pool concurrency for every pooled pipeline stage.
func WithWorkers(n int) Option { return engine.WithWorkers(n) }

// WithObserver installs a progress-event sink on every pooled stage.
func WithObserver(o Observer) Option { return engine.WithObserver(o) }

// WithRetryPolicy sets the per-item retry policy for pooled stages.
func WithRetryPolicy(p RetryPolicy) Option { return engine.WithRetryPolicy(p) }

// DefaultRetryPolicy retries twice with a short exponential backoff.
func DefaultRetryPolicy() RetryPolicy { return engine.DefaultRetryPolicy() }

// NewStats builds a standalone metrics registry (NewWorld installs one
// automatically; use this only to share a registry across worlds).
func NewStats() *Stats { return engine.NewStats() }

// ErrUnknownPlan reports a campaign key matching no Table 3 plan (see
// World.RunPlan and World.PlanKeys).
var ErrUnknownPlan = world.ErrUnknownPlan

// DefaultFaultProfile is the fault profile Options.ChaosSeed uses when
// Options.FaultProfile is empty.
const DefaultFaultProfile = netsim.DefaultFaultProfile

// FaultProfiles lists the named fault-injection profiles accepted by
// Options.FaultProfile, sorted.
func FaultProfiles() []string { return netsim.FaultProfiles() }

// NewWorld builds the default simulated Internet. Trailing options tune
// the shared execution substrate, e.g.
//
//	filtermap.NewWorld(filtermap.Options{}, filtermap.WithWorkers(8))
//
// The Options struct keeps its previous meaning; calls without engine
// options behave exactly as before.
func NewWorld(opts Options, engOpts ...Option) (*World, error) {
	return world.Build(opts, engOpts...)
}

// Server is the fmserve HTTP service: the three pipelines behind a JSON
// API with result caching, background jobs, and metrics. It implements
// http.Handler; see cmd/fmserve for the standalone daemon.
type Server = server.Server

// ServeOptions configures NewServer (world options, cache TTL and size,
// job workers, rate limits, request-size cap).
type ServeOptions = server.Options

// NewServer builds the HTTP service and its long-lived world. Trailing
// options tune the execution substrate exactly as in NewWorld:
//
//	srv, err := filtermap.NewServer(filtermap.ServeOptions{}, filtermap.WithWorkers(8))
//	if err != nil { ... }
//	defer srv.Shutdown(context.Background())
//	http.ListenAndServe(":8080", srv)
func NewServer(opts ServeOptions, engOpts ...Option) (*Server, error) {
	return server.New(opts, engOpts...)
}

// Distributed scan-out layer: the coordinator/worker cluster that shards
// pipeline runs across machines (see cmd/fmworker and fmserve -role).
type (
	// ClusterOptions enables coordinator-mode scan-out on a Server
	// (ServeOptions.Cluster).
	ClusterOptions = server.ClusterOptions
	// ClusterWorker is one scan-out worker: it leases shards from a
	// coordinator, runs them against its own world replica, and ships
	// document fragments back.
	ClusterWorker = cluster.Worker
	// ClusterCounters is the coordinator's shard/lease/steal census.
	ClusterCounters = cluster.Counters
	// ClusterStatus is the GET /v1/cluster document.
	ClusterStatus = cluster.StatusDoc
	// ReplicaFollower tails a coordinator's replication log into a local
	// snapshot store (ServeOptions.Follow wires one into a Server).
	ReplicaFollower = cluster.Follower
	// ClusterTransport is the HTTP client side of the /v1/cluster
	// protocol; set Token when the coordinator requires one.
	ClusterTransport = cluster.HTTPTransport
)

// Cluster roles accepted by ClusterOptions.Role and fmserve -role.
const (
	RoleCoordinator = server.RoleCoordinator
	RoleBoth        = server.RoleBoth
)

// NewClusterWorker builds a worker that pulls shard leases from the
// coordinator at baseURL (an fmserve running -role coordinator|both)
// over HTTP. Drive it with Run; stop it gracefully with Drain. Trailing
// options tune the worker's engine exactly as in NewWorld:
//
//	w := filtermap.NewClusterWorker("worker-1", "http://coord:8080", filtermap.WithWorkers(8))
//	go w.Run(ctx)
func NewClusterWorker(id, baseURL string, engOpts ...Option) *ClusterWorker {
	return NewClusterWorkerWithToken(id, baseURL, "", engOpts...)
}

// NewClusterWorkerWithToken is NewClusterWorker carrying the shared
// cluster secret a token-protected coordinator (fmserve -cluster-token)
// requires on every protocol call. An empty token is NewClusterWorker.
func NewClusterWorkerWithToken(id, baseURL, token string, engOpts ...Option) *ClusterWorker {
	return cluster.NewWorker(id, &cluster.HTTPTransport{BaseURL: baseURL, Token: token}, engOpts...)
}

// Machine-readable document types: the JSON counterparts of the text
// tables, shared by the fmserve API and the CLIs' -json flags.
type (
	// Table1Doc is Table 1 (product inventory) as a document.
	Table1Doc = report.Table1Doc
	// Table3Doc is Table 3 (confirmation case studies) as a document.
	Table3Doc = report.Table3Doc
	// Table4Doc is Table 4 (blocked-content matrix) as a document.
	Table4Doc = report.Table4Doc
	// IdentifyDoc is the §3 report (Figure 1 content plus installations)
	// as a document.
	IdentifyDoc = report.IdentifyDoc
	// DiscoveryDoc is the discovery-crawl report as a document.
	DiscoveryDoc = report.DiscoveryDoc
)

// Longitudinal layer: the append-only snapshot store and the diff/churn
// engine over it (see cmd/fmhist for the CLI surface).
type (
	// SnapshotStore is the append-only, content-addressed snapshot log.
	SnapshotStore = store.Store
	// Snapshot is one world observation to persist.
	Snapshot = store.Snapshot
	// SnapshotMeta describes one stored snapshot.
	SnapshotMeta = store.Meta
	// SnapshotQuery filters SnapshotStore.List.
	SnapshotQuery = store.Query
	// Diff is the churn between two snapshots of one kind. Its Section
	// is the kind's own diff: installation churn for identify,
	// characterization drift for table4, discovered-URL drift for
	// discovery, mechanism migrations for mechanisms.
	Diff = plan.Diff
	// Timeline is per-country counts across snapshots of one kind, in
	// the unit the kind counts (installations for identify).
	Timeline = plan.Timeline
	// DiffEngine computes diffs and timelines over stored snapshots.
	DiffEngine = plan.DiffEngine
)

// OpenStore opens (or creates) a snapshot store rooted at dir. An empty
// dir returns a memory-backed store with no persistence.
func OpenStore(dir string) (*SnapshotStore, error) { return store.Open(dir) }

// Continuous-measurement layer: the scheduler that re-runs scan plans on
// virtual intervals against a churning world, appending incremental
// snapshots and streaming longitudinal events (see cmd/fmmonitor and
// fmserve's /v1/watch).
type (
	// Monitor is the continuous-measurement loop.
	Monitor = monitor.Monitor
	// MonitorOptions configures a Monitor.
	MonitorOptions = monitor.Options
	// MonitorPlan is one recurring scan in the rotation.
	MonitorPlan = monitor.Plan
	// MonitorCounters is the scheduler-counter snapshot.
	MonitorCounters = monitor.Counters
	// MonitorEvent is one entry in the monitor's event stream.
	MonitorEvent = monitor.Event
	// WatchBroker fans monitor events out to subscribers with a
	// replayable tail (the /v1/watch backing store).
	WatchBroker = monitor.Broker
)

// NewMonitor builds a continuous-measurement loop appending snapshots to
// st. Drive it with RunTicks; observe it through Broker().
func NewMonitor(o MonitorOptions, st *SnapshotStore) (*Monitor, error) { return monitor.New(o, st) }

// NewWatchBroker builds an event broker retaining the last retain events
// for replay (0 = default).
func NewWatchBroker(retain int) *WatchBroker { return monitor.NewBroker(retain) }

// DefaultMonitorPlans is the standing scan rotation: identify daily, the
// mechanism survey every other day, a discovery crawl twice a week.
func DefaultMonitorPlans() []MonitorPlan { return monitor.DefaultPlans() }

// RenderMonitorLog renders a monitor event stream as the one-line-per-
// event log fmmonitor prints.
func RenderMonitorLog(events []MonitorEvent) string { return monitor.RenderLog(events) }

// RenderMonitorSummary renders the scheduler counters.
func RenderMonitorSummary(c MonitorCounters) string { return monitor.RenderSummary(c) }

// NewDiffEngine builds a longitudinal diff engine. Trailing options tune
// the execution substrate exactly as in NewWorld.
func NewDiffEngine(opts ...Option) *DiffEngine { return plan.NewDiffEngine(opts...) }

// ConfigHash fingerprints a configuration value (canonical JSON,
// SHA-256, 16 hex chars) — the hash snapshot records and the fmserve
// result cache share.
func ConfigHash(v any) string { return store.ConfigHash(v) }

// Scale profile names accepted by Options.Scale. The default ("" or
// ScaleSmall) is the handcrafted paper world alone; ScaleCity and
// ScaleNation add synthetic populations answered from seeded
// derivations (see DESIGN.md §16).
const (
	ScaleSmall  = world.ScaleSmall
	ScaleCity   = world.ScaleCity
	ScaleNation = world.ScaleNation
)

// ISP names and AS numbers of the paper's case studies.
const (
	ISPEtisalat = world.ISPEtisalat
	ISPDu       = world.ISPDu
	ISPOoredoo  = world.ISPOoredoo
	ISPBayanat  = world.ISPBayanat
	ISPNournet  = world.ISPNournet
	ISPYemenNet = world.ISPYemenNet

	ASNEtisalat = world.ASNEtisalat
	ASNDu       = world.ASNDu
	ASNOoredoo  = world.ASNOoredoo
	ASNBayanat  = world.ASNBayanat
	ASNNournet  = world.ASNNournet
	ASNYemenNet = world.ASNYemenNet
)

// Reporter renders the paper's tables and figures. The zero value is
// ready to use; it exists as a type (rather than free functions) so
// rendering gains a single extension point for future output formats.
type Reporter struct{}

// Table1 renders the paper's product inventory.
func (Reporter) Table1() string {
	return report.Table1(report.DefaultProductInventory())
}

// Table3 renders confirmation outcomes in the paper's Table 3 layout.
func (Reporter) Table3(outcomes []*Outcome) string { return report.Table3(outcomes) }

// Table4 renders characterization reports as the Table 4 matrix.
func (Reporter) Table4(reports []*CharacterizeReport) string {
	return report.Table4(characterize.Matrix(reports))
}

// Table4WithReports renders the Table 4 matrix plus, when any run was
// degraded (partial measurements under fault injection), a DEGRADED
// footer. Without degraded runs the output is byte-identical to Table4.
func (Reporter) Table4WithReports(reports []*CharacterizeReport) string {
	return report.Table4WithReports(reports)
}

// Figure1 renders the identification report as the Figure 1 map.
func (Reporter) Figure1(rep *IdentifyReport) string { return report.Figure1(rep) }

// Installations renders per-installation identification detail.
func (Reporter) Installations(rep *IdentifyReport) string { return report.Installations(rep) }

// Stats renders a per-stage timing table from an engine snapshot.
func (Reporter) Stats(snap StatsSnapshot) string { return snap.Render() }

// Table1JSON builds the machine-readable Table 1 document — the same
// encoding fmserve returns from GET /v1/reports/table1.
func (Reporter) Table1JSON() Table1Doc { return report.Table1JSON() }

// Table3JSON builds the machine-readable Table 3 document from
// confirmation outcomes (fmserve's POST /v1/confirm encoding).
func (Reporter) Table3JSON(outcomes []*Outcome) Table3Doc { return report.Table3JSON(outcomes) }

// Table4JSON builds the machine-readable Table 4 document from
// characterization reports (fmserve's POST /v1/characterize encoding).
func (Reporter) Table4JSON(reports []*CharacterizeReport) Table4Doc {
	return report.Table4JSON(reports)
}

// IdentifyJSON builds the machine-readable identification document
// (fmserve's POST /v1/identify encoding).
func (Reporter) IdentifyJSON(rep *IdentifyReport) IdentifyDoc { return report.IdentifyJSON(rep) }

// Discovery renders a discovery run as text: per-target totals, round
// detail, and the novel blocked URLs absent from every curated list.
// Zero rounds/budget print as the crawler defaults.
func (Reporter) Discovery(rounds, budget int, targets []TargetDiscovery) string {
	return report.Discovery(rounds, budget, discoveryTargets(targets), world.DiscoveredList(targets))
}

// DiscoveryJSON builds the machine-readable discovery document
// (fmserve's POST /v1/discover encoding).
func (Reporter) DiscoveryJSON(rounds, budget int, targets []TargetDiscovery) DiscoveryDoc {
	return report.DiscoveryJSON(rounds, budget, discoveryTargets(targets), world.DiscoveredList(targets))
}

// discoveryTargets adapts world targets to the report layer's view.
func discoveryTargets(targets []TargetDiscovery) []report.DiscoveryTarget {
	rts := make([]report.DiscoveryTarget, 0, len(targets))
	for _, t := range targets {
		rts = append(rts, report.DiscoveryTarget{
			Country: t.Country, ISP: t.ISP, ASN: t.ASN, Report: t.Report,
		})
	}
	return rts
}

// Mechanisms renders the mechanism survey as text: per-ISP mechanism
// and product attributions with their wire-quirk evidence.
func (Reporter) Mechanisms(targets []MechanismSurveyTarget) string {
	return report.MechanismSurvey(mechanismTargets(targets))
}

// Table4Mechanisms renders the mechanism analog of Table 4: product,
// mechanism, and censored research categories per surveyed ISP.
func (Reporter) Table4Mechanisms(targets []MechanismSurveyTarget) string {
	return report.Table4Mechanisms(mechanismTargets(targets))
}

// MechanismsJSON builds the machine-readable mechanism survey document
// (fmserve's POST /v1/mechanisms encoding).
func (Reporter) MechanismsJSON(targets []MechanismSurveyTarget) MechanismsDoc {
	return report.MechanismsJSON(mechanismTargets(targets))
}

// mechanismTargets adapts world survey targets to the report layer.
func mechanismTargets(targets []MechanismSurveyTarget) []report.MechanismTarget {
	rts := make([]report.MechanismTarget, 0, len(targets))
	for _, t := range targets {
		rts = append(rts, report.MechanismTarget{
			Country: t.Country, ISP: t.ISP, ASN: t.ASN, Results: t.Results,
		})
	}
	return rts
}

// DiffText renders a longitudinal diff as text — the same output fmhist
// diff prints.
func (Reporter) DiffText(d *Diff) string { return d.Render() }

// Timeline renders a longitudinal timeline as a per-country count table.
func (Reporter) Timeline(tl *Timeline) string { return tl.Render() }
