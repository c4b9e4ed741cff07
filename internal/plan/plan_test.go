package plan

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/netip"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"filtermap/internal/identify"
	"filtermap/internal/netsim"
	"filtermap/internal/report"
	"filtermap/internal/store"
	"filtermap/internal/world"
)

func TestSplitIdentifyPerProduct(t *testing.T) {
	specs, err := Split(Request{Kind: KindIdentify})
	if err != nil {
		t.Fatal(err)
	}
	want := products()
	if len(specs) != len(want) {
		t.Fatalf("identify shards = %d, want %d", len(specs), len(want))
	}
	for i, spec := range specs {
		if len(spec.Pieces) != 1 || spec.Pieces[0] != want[i] {
			t.Fatalf("shard %d pieces = %v, want [%s]", i, spec.Pieces, want[i])
		}
	}
}

func TestSplitISPOrderAndFilter(t *testing.T) {
	roster := world.MechanismRosterISPs()
	if len(roster) < 2 {
		t.Skip("roster too small to exercise filtering")
	}
	specs, err := Split(Request{Kind: KindMechanisms})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != len(roster) {
		t.Fatalf("mechanisms shards = %d, want %d", len(specs), len(roster))
	}
	// Request ISPs out of roster order: shard order must stay canonical.
	reversed := []string{roster[len(roster)-1], roster[0]}
	specs, err = Split(Request{Kind: KindMechanisms, ISPs: reversed})
	if err != nil {
		t.Fatal(err)
	}
	if len(specs) != 2 || specs[0].Pieces[0] != roster[0] || specs[1].Pieces[0] != roster[len(roster)-1] {
		t.Fatalf("filtered shards not in roster order: %+v", specs)
	}
	if _, err := Split(Request{Kind: "confirm"}); err == nil {
		t.Fatal("Split(confirm) should fail: the confirmation timeline is not a plan")
	}
}

func TestMergeIdentifyExactness(t *testing.T) {
	// Two product shards sharing a candidate and an installation: the
	// union must count the host once, keep byte-identical installations
	// deduped, and sort numerically (10.0.0.9 before 10.0.0.70).
	shared := report.InstallationDoc{IP: "10.0.0.9", Products: []string{"Netsweeper", "Websense"}, Country: "YE"}
	addrs := func(ips ...string) []netip.Addr {
		out := make([]netip.Addr, len(ips))
		for i, ip := range ips {
			out[i] = netip.MustParseAddr(ip)
		}
		return out
	}
	fragA := &Fragment{part: identifyPart{
		IdentifyDoc: report.IdentifyDoc{
			Installations: []report.InstallationDoc{{IP: "10.0.0.70", Products: []string{"Netsweeper"}, Country: "QA"}, shared},
			StageErrors:   []report.StageErrorDoc{{Stage: "whois", Target: "10.0.0.9", Error: "timeout"}},
		},
		Candidates: map[string][]netip.Addr{"Netsweeper": addrs("10.0.0.9", "10.0.0.70")},
	}}
	fragB := &Fragment{part: identifyPart{
		IdentifyDoc: report.IdentifyDoc{
			Installations: []report.InstallationDoc{shared},
			StageErrors:   []report.StageErrorDoc{{Stage: "whois", Target: "10.0.0.9", Error: "timeout"}},
		},
		Candidates: map[string][]netip.Addr{"Websense": addrs("10.0.0.9", "10.0.0.200")},
	}}
	got, degraded, err := Merge(Request{Kind: KindIdentify}, []*Fragment{fragA, fragB})
	if err != nil {
		t.Fatal(err)
	}
	doc := got.(report.IdentifyDoc)

	if doc.CandidateCount != 3 {
		t.Fatalf("CandidateCount = %d, want 3 (distinct-IP union)", doc.CandidateCount)
	}
	if doc.ValidatedCount != 2 || len(doc.Installations) != 2 {
		t.Fatalf("ValidatedCount = %d (installs %d), want 2 deduped", doc.ValidatedCount, len(doc.Installations))
	}
	if doc.Installations[0].IP != "10.0.0.9" || doc.Installations[1].IP != "10.0.0.70" {
		t.Fatalf("installations not in numeric address order: %s, %s", doc.Installations[0].IP, doc.Installations[1].IP)
	}
	if len(doc.StageErrors) != 1 {
		t.Fatalf("stage errors not deduped by (stage, target): %+v", doc.StageErrors)
	}
	if want := (3.0 - 2.0) / 3.0; doc.FalsePositiveRate != want {
		t.Fatalf("FalsePositiveRate = %v, want %v", doc.FalsePositiveRate, want)
	}
	wantCountries := map[string][]string{"Netsweeper": {"QA", "YE"}, "Websense": {"YE"}}
	if !reflect.DeepEqual(doc.ProductCountries, wantCountries) {
		t.Fatalf("ProductCountries = %v, want %v", doc.ProductCountries, wantCountries)
	}
	if !doc.Degraded || !degraded {
		t.Fatal("stage errors must mark the merged doc degraded")
	}

	if _, _, err := Merge(Request{Kind: KindIdentify}, []*Fragment{fragA, nil}); err == nil {
		t.Fatal("Merge must reject a missing fragment")
	}
}

// TestMergePerPieceEqualsWhole is the registry-wide exactness check:
// for every kind, merging one shard per piece must produce the same
// document as merging the single whole-request shard a standalone run
// executes — the property that lets a single process be a one-shard
// cluster. The per-piece fragments also go through their wire form, as
// a coordinator receives them, and must merge to the same bytes again.
func TestMergePerPieceEqualsWhole(t *testing.T) {
	roster := world.MechanismRosterISPs()
	requests := map[string]Request{
		KindIdentify:     {Kind: KindIdentify},
		KindCharacterize: {Kind: KindCharacterize},
		KindDiscover:     {Kind: KindDiscover, Rounds: 1, Budget: 8},
		KindMechanisms:   {Kind: KindMechanisms, ISPs: roster[:3]},
	}
	if got, want := len(requests), len(Kinds()); got != want {
		t.Fatalf("test covers %d kinds, registry has %d", got, want)
	}
	ctx := context.Background()
	runner := NewRunner()
	defer runner.Close()
	for _, kind := range Kinds() {
		t.Run(kind, func(t *testing.T) {
			req := requests[kind]
			if err := Normalize(&req); err != nil {
				t.Fatal(err)
			}
			wholeDoc, wholeDegraded, err := runner.Run(ctx, req)
			if err != nil {
				t.Fatal(err)
			}
			specs, err := Split(req)
			if err != nil {
				t.Fatal(err)
			}
			if len(specs) < 2 {
				t.Fatalf("%s splits into %d shards; the check needs at least 2", kind, len(specs))
			}
			frags := make([]*Fragment, len(specs))
			for i, spec := range specs {
				if frags[i], err = runner.RunShard(ctx, spec); err != nil {
					t.Fatal(err)
				}
			}
			a, _ := json.Marshal(wholeDoc) //nolint:errcheck // report docs always marshal
			for form, fs := range map[string][]*Fragment{"per-piece": frags, "wire": viaWire(t, frags)} {
				doc, degraded, err := Merge(req, fs)
				if err != nil {
					t.Fatalf("%s merge: %v", form, err)
				}
				b, _ := json.Marshal(doc) //nolint:errcheck
				if string(a) != string(b) || wholeDegraded != degraded {
					t.Fatalf("%s merge differs from whole-request merge\nwhole: %.400s\n%s: %.400s", form, a, form, b)
				}
			}
		})
	}
}

// viaWire returns frags as a coordinator receives them: each one's JSON
// decoded into a new fragment.
func viaWire(t *testing.T, frags []*Fragment) []*Fragment {
	t.Helper()
	wire := make([]*Fragment, len(frags))
	for i, f := range frags {
		b, err := json.Marshal(f)
		if err != nil {
			t.Fatal(err)
		}
		wire[i] = new(Fragment)
		if err := json.Unmarshal(b, wire[i]); err != nil {
			t.Fatal(err)
		}
	}
	return wire
}

func TestNormalizeRejectsUnknownNames(t *testing.T) {
	for _, req := range []Request{
		{Kind: KindIdentify, Products: []string{"NotAProduct"}},
		{Kind: KindIdentify, Countries: []string{"SA port:x"}},
		{Kind: KindCharacterize, ISPs: []string{"NoSuchISP"}},
		{Kind: KindDiscover, ISPs: []string{"NoSuchISP"}},
		{Kind: KindDiscover, Rounds: -1},
		{Kind: KindMechanisms, ISPs: []string{"NoSuchISP"}},
		{Kind: "confirm"},
	} {
		if err := Normalize(&req); err == nil {
			t.Errorf("Normalize(%+v) accepted", req)
		}
	}
	req := Request{Kind: KindIdentify, Countries: []string{"sa", " SA", "ye", ""}}
	if err := Normalize(&req); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(req.Countries, []string{"SA", "YE"}) {
		t.Fatalf("identify countries normalized to %q, want [SA YE]", req.Countries)
	}
	req = Request{Kind: KindMechanisms, ISPs: []string{" Nayatel", "Nayatel"}, Rounds: 3}
	if err := Normalize(&req); err != nil {
		t.Fatal(err)
	}
	if req.World.Mechanisms == nil || len(req.ISPs) != 1 || req.Rounds != 0 {
		t.Fatalf("mechanisms normalization = %+v", req)
	}
}

// identifyShard is a cheap replica shard under a given world seed.
func identifyShard(seed int64) ShardSpec {
	return ShardSpec{
		Request: Request{Kind: KindIdentify, World: world.Options{Seed: seed}, Countries: []string{"YE"}},
		Pieces:  []string{"Netsweeper"},
	}
}

func closed(w *world.World) bool {
	_, err := w.ScanVantage.Dial(context.Background(), w.Lab.Addr(), 80)
	return errors.Is(err, netsim.ErrNetworkClosed)
}

// identifyRequest is a normalized identify request over products.
func identifyRequest(t *testing.T, products ...string) Request {
	t.Helper()
	req := Request{Kind: KindIdentify, Products: products}
	if err := Normalize(&req); err != nil {
		t.Fatal(err)
	}
	return req
}

// freshIdentify runs req with Execute on a fresh default world: scanned
// and validated afresh, with nothing kept between runs.
func freshIdentify(t *testing.T, req Request) report.IdentifyDoc {
	t.Helper()
	w, err := world.Build(req.World)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	doc, _, err := Execute(context.Background(), w, req)
	if err != nil {
		t.Fatal(err)
	}
	return doc.(report.IdentifyDoc)
}

// runIdentify runs req on r and returns its document.
func runIdentify(t *testing.T, r *Runner, req Request) report.IdentifyDoc {
	t.Helper()
	doc, _, err := r.Run(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	return doc.(report.IdentifyDoc)
}

func installed(doc report.IdentifyDoc, ip string) bool {
	for _, in := range doc.Installations {
		if in.IP == ip {
			return true
		}
	}
	return false
}

// TestReplicaReusesValidation pins the replica epoch for validation: a
// host validated by one request is answered from that outcome by every
// later request on the replica, without a probe. Taking the host off the
// world between two requests shows it: the second still lists the host.
func TestReplicaReusesValidation(t *testing.T) {
	opts := world.Options{}
	base, err := world.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	r := NewRunner()
	defer r.Close()
	r.Adopt(opts, base)

	first := runIdentify(t, r, identifyRequest(t, "Netsweeper", "Websense"))
	var gone string
	for _, in := range first.Installations {
		if reflect.DeepEqual(in.Products, []string{"Netsweeper"}) {
			gone = in.IP
			break
		}
	}
	if gone == "" {
		t.Fatal("the first request validated no Netsweeper host")
	}
	if err := base.RemoveInstallation(gone); err != nil {
		t.Fatal(err)
	}
	if second := runIdentify(t, r, identifyRequest(t, "Netsweeper")); !installed(second, gone) {
		t.Fatalf("host %s was probed again after its validation: the second request dropped it", gone)
	}
	// A fresh world that lost the host does not list it.
	fresh, err := world.Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if err := fresh.RemoveInstallation(gone); err != nil {
		t.Fatal(err)
	}
	doc, _, err := Execute(context.Background(), fresh, identifyRequest(t, "Netsweeper"))
	if err != nil {
		t.Fatal(err)
	}
	if installed(doc.(report.IdentifyDoc), gone) {
		t.Fatalf("a fresh world without host %s still lists it", gone)
	}
}

// TestReplicaRetriesFailedValidation: only definite outcomes are kept.
// A candidate whose validation failed is probed again by the next
// request on the replica, and validates once its dials go through.
func TestReplicaRetriesFailedValidation(t *testing.T) {
	req := identifyRequest(t, "Netsweeper")
	want := freshIdentify(t, req)
	if len(want.Installations) == 0 {
		t.Fatal("a fresh world validated no Netsweeper host")
	}
	target := want.Installations[0].IP

	base, err := world.Build(req.World)
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	r := NewRunner()
	defer r.Close()
	r.Adopt(req.World, base)
	rep, err := r.acquire(context.Background(), req.World) // scan before the fault
	if err != nil {
		t.Fatal(err)
	}
	r.release(rep)

	base.Net.SetFaultPlan(&netsim.FaultPlan{Rules: []netsim.FaultRule{{
		Kind: netsim.FaultConnectTimeout, Dst: netip.PrefixFrom(netip.MustParseAddr(target), 32),
		Probability: 1, Sticky: true,
	}}})
	failed := runIdentify(t, r, req)
	if installed(failed, target) || len(failed.StageErrors) == 0 || failed.StageErrors[0].Target != target {
		t.Fatalf("with its dials failing, host %s: installed %v, stage errors %+v", target, installed(failed, target), failed.StageErrors)
	}

	base.Net.SetFaultPlan(nil)
	got := runIdentify(t, r, req)
	a, _ := json.Marshal(got)  //nolint:errcheck // report docs always marshal
	b, _ := json.Marshal(want) //nolint:errcheck
	if string(a) != string(b) {
		t.Fatalf("after the fault the replica answers\n%.400s\nwant\n%.400s", a, b)
	}
}

func TestRunnerReplicaCap(t *testing.T) {
	ctx := context.Background()
	r := NewRunner()
	defer r.Close()

	base, err := world.Build(world.Options{Seed: 100})
	if err != nil {
		t.Fatal(err)
	}
	defer base.Close()
	r.Adopt(world.Options{Seed: 100}, base)
	if _, err := r.RunShard(ctx, identifyShard(100)); err != nil {
		t.Fatal(err)
	}

	// Drive twice the cap in distinct configs through the table.
	var first *world.World
	freed := make(chan struct{})
	for seed := int64(1); seed <= 2*maxReplicas; seed++ {
		if _, err := r.RunShard(ctx, identifyShard(seed)); err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			rep := r.replicas[storeKey(seed)]
			first = rep.world
			runtime.SetFinalizer(rep.epoch.Validated, func(*identify.Outcomes) { close(freed) })
		}
		if n := len(r.replicas); n > maxReplicas {
			t.Fatalf("after %d configs the table holds %d replicas, cap %d", seed, n, maxReplicas)
		}
	}
	if _, ok := r.replicas[storeKey(1)]; ok || !closed(first) {
		t.Fatal("the least recently used replica was not evicted and closed")
	}
	// Its validation outcomes go with it.
	for i := 0; ; i++ {
		runtime.GC()
		select {
		case <-freed:
		case <-time.After(10 * time.Millisecond):
			if i < 100 {
				continue
			}
			t.Fatal("the evicted replica's validation outcomes are still reachable")
		}
		break
	}
	if _, ok := r.replicas[storeKey(100)]; !ok || closed(base) {
		t.Fatal("the adopted replica was evicted or closed")
	}

	// Busy replicas are never evicted: pin more than the cap at once,
	// then release them and the table shrinks back.
	var held []*replica
	for seed := int64(1); seed <= maxReplicas+1; seed++ {
		rep, err := r.acquire(ctx, world.Options{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		held = append(held, rep)
	}
	if n := len(r.replicas); n != maxReplicas+2 {
		t.Fatalf("table holds %d replicas with %d busy plus the adopted one", n, maxReplicas+1)
	}
	for _, rep := range held {
		if closed(rep.world) {
			t.Fatal("a busy replica's world was closed")
		}
		r.release(rep)
	}
	if n := len(r.replicas); n != maxReplicas {
		t.Fatalf("after release the table holds %d replicas, cap %d", n, maxReplicas)
	}
}

func storeKey(seed int64) string { return store.ConfigHash(world.Options{Seed: seed}) }

// TestRunnerConcurrentShards drives the replica table from several
// goroutines at once over more configs than the cap (run with -race):
// every shard must succeed on a live world, and the table must settle
// within the cap once they finish. The goroutines run overlapping
// product sets, so shards on one replica share candidates, and their
// validation outcomes, while they run; every fragment must equal the
// one a fresh world gives.
func TestRunnerConcurrentShards(t *testing.T) {
	pieces := [][]string{{"Netsweeper"}, {"Netsweeper", "Websense"}}
	want := make(map[string]string)
	for seed := int64(1); seed <= maxReplicas+2; seed++ {
		for _, ps := range pieces {
			spec := identifyShard(seed)
			spec.Pieces = ps
			w, err := world.Build(spec.World)
			if err != nil {
				t.Fatal(err)
			}
			frag, err := execIdentify(context.Background(), w, nil, spec)
			w.Close()
			if err != nil {
				t.Fatal(err)
			}
			b, _ := json.Marshal(frag) //nolint:errcheck // fragments always marshal
			want[fmt.Sprint(seed, ps)] = string(b)
		}
	}

	r := NewRunner()
	defer r.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 4*(maxReplicas+2))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := int64(1); seed <= maxReplicas+2; seed++ {
				spec := identifyShard(seed)
				spec.Pieces = pieces[(g+int(seed))%len(pieces)]
				frag, err := r.RunShard(context.Background(), spec)
				if err != nil {
					errs <- err
					continue
				}
				if b, _ := json.Marshal(frag); string(b) != want[fmt.Sprint(seed, spec.Pieces)] { //nolint:errcheck
					errs <- fmt.Errorf("seed %d %v: fragment differs from a fresh world's:\n%.300s", seed, spec.Pieces, b)
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if n := len(r.replicas); n > maxReplicas {
		t.Fatalf("table holds %d replicas after the shards finished, cap %d", n, maxReplicas)
	}
}
