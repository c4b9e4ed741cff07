package plan

import (
	"context"
	"encoding/json"
	"errors"
	"reflect"
	"sync"
	"testing"

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
	fragA := &Fragment{
		Pieces:        []string{"Netsweeper"},
		Candidates:    map[string][]string{"Netsweeper": {"10.0.0.9", "10.0.0.70"}},
		Installations: []report.InstallationDoc{{IP: "10.0.0.70", Products: []string{"Netsweeper"}, Country: "QA"}, shared},
		StageErrors:   []report.StageErrorDoc{{Stage: "whois", Target: "10.0.0.9", Error: "timeout"}},
	}
	fragB := &Fragment{
		Pieces:        []string{"Websense"},
		Candidates:    map[string][]string{"Websense": {"10.0.0.9", "10.0.0.200"}},
		Installations: []report.InstallationDoc{shared},
		StageErrors:   []report.StageErrorDoc{{Stage: "whois", Target: "10.0.0.9", Error: "timeout"}},
	}
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
// cluster.
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
			pieceDoc, pieceDegraded, err := Merge(req, frags)
			if err != nil {
				t.Fatal(err)
			}
			a, _ := json.Marshal(wholeDoc) //nolint:errcheck // report docs always marshal
			b, _ := json.Marshal(pieceDoc) //nolint:errcheck
			if string(a) != string(b) || wholeDegraded != pieceDegraded {
				t.Fatalf("per-piece merge differs from whole-request merge\nwhole:     %.400s\nper-piece: %.400s", a, b)
			}
		})
	}
}

func TestNormalizeRejectsUnknownNames(t *testing.T) {
	for _, req := range []Request{
		{Kind: KindIdentify, Products: []string{"NotAProduct"}},
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
	req := Request{Kind: KindMechanisms, ISPs: []string{" Nayatel", "Nayatel"}, Rounds: 3}
	if err := Normalize(&req); err != nil {
		t.Fatal(err)
	}
	if req.World.Mechanisms == nil || len(req.ISPs) != 1 || req.Rounds != 0 {
		t.Fatalf("mechanisms normalization = %+v", req)
	}
}

// identifyShard is a cheap replica shard under a given world seed.
func identifyShard(seed int64) ShardSpec {
	return ShardSpec{Kind: KindIdentify, World: world.Options{Seed: seed}, Pieces: []string{"Netsweeper"}, Countries: []string{"YE"}}
}

func closed(w *world.World) bool {
	_, err := w.ScanVantage.Dial(context.Background(), w.Lab.Addr(), 80)
	return errors.Is(err, netsim.ErrNetworkClosed)
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
	for seed := int64(1); seed <= 2*maxReplicas; seed++ {
		if _, err := r.RunShard(ctx, identifyShard(seed)); err != nil {
			t.Fatal(err)
		}
		if seed == 1 {
			first = r.replicas[storeKey(seed)].world
		}
		if n := len(r.replicas); n > maxReplicas {
			t.Fatalf("after %d configs the table holds %d replicas, cap %d", seed, n, maxReplicas)
		}
	}
	if _, ok := r.replicas[storeKey(1)]; ok || !closed(first) {
		t.Fatal("the least recently used replica was not evicted and closed")
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
// within the cap once they finish.
func TestRunnerConcurrentShards(t *testing.T) {
	r := NewRunner()
	defer r.Close()
	var wg sync.WaitGroup
	errs := make(chan error, 4*(maxReplicas+2))
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for seed := int64(1); seed <= maxReplicas+2; seed++ {
				if _, err := r.RunShard(context.Background(), identifyShard(seed)); err != nil {
					errs <- err
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
