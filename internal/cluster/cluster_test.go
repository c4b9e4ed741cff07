package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"filtermap/internal/plan"
	"filtermap/internal/report"
	"filtermap/internal/world"
)

// fakeClock is a hand-advanced clock for lease-expiry tests.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

// ---- ring ----

func TestRingDeterministicOwnership(t *testing.T) {
	members := []string{"a", "b", "c"}
	r1 := newRing(members)
	r2 := newRing([]string{"c", "a", "b"}) // order must not matter
	keys := []string{"mechanisms/Etisalat", "identify/Netsweeper", "discover/YemenNet", "characterize/Du"}
	for _, k := range keys {
		if r1.owner(k) != r2.owner(k) {
			t.Fatalf("ring ownership depends on member order for %q: %q vs %q", k, r1.owner(k), r2.owner(k))
		}
	}
	if got := newRing(nil).owner("anything"); got != "" {
		t.Fatalf("empty ring owner = %q, want \"\"", got)
	}
}

// TestRingStability checks the consistent-hashing property: removing one
// member only moves the keys that member owned.
func TestRingStability(t *testing.T) {
	members := []string{"w1", "w2", "w3", "w4"}
	full := newRing(members)
	without := newRing([]string{"w1", "w2", "w3"})
	moved := 0
	for i := 0; i < 200; i++ {
		key := "identify/product-" + strings.Repeat("x", i%7) + string(rune('a'+i%26))
		before, after := full.owner(key), without.owner(key)
		if before == "w4" {
			continue // had to move
		}
		if before != after {
			moved++
		}
	}
	if moved != 0 {
		t.Fatalf("%d keys not owned by the removed member changed owner", moved)
	}
}

// ---- coordinator lease state machine ----

// startJob submits a mechanisms job and waits until its shards are
// leasable, returning the result channel.
func startJob(t *testing.T, c *Coordinator) (<-chan any, <-chan error) {
	t.Helper()
	return startRequest(t, c, plan.Request{Kind: plan.KindMechanisms})
}

// startRequest is startJob for any request.
func startRequest(t *testing.T, c *Coordinator, req plan.Request) (<-chan any, <-chan error) {
	t.Helper()
	docs := make(chan any, 1)
	errs := make(chan error, 1)
	go func() {
		doc, _, err := c.Run(context.Background(), req)
		docs <- doc
		errs <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for {
		st := c.Status()
		if len(st.Jobs) > 0 && st.Jobs[0].State == "running" {
			return docs, errs
		}
		if time.Now().After(deadline) {
			t.Fatal("job never became leasable")
		}
		time.Sleep(time.Millisecond)
	}
}

// wireFragment is v as a coordinator receives it: the JSON a worker
// posts, decoded into a fragment.
func wireFragment(v any) *plan.Fragment {
	body, _ := json.Marshal(v) //nolint:errcheck // test values always marshal
	var f plan.Fragment
	json.Unmarshal(body, &f) //nolint:errcheck // a fragment keeps any JSON value
	return &f
}

// fragFor fabricates a deterministic mechanisms fragment for a lease.
func fragFor(l ShardLease) *plan.Fragment {
	return wireFragment(report.MechanismsDoc{Mechanisms: []report.MechanismISPDoc{{ISP: l.Spec.Pieces[0], Tested: 1}}})
}

func TestLeaseExpiryAndReassignment(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := NewCoordinator(Options{LeaseTTL: time.Second, Now: clk.Now})
	docs, errs := startJob(t, c)

	n := len(world.MechanismRosterISPs())
	leasesA := c.Lease("worker-a", n+5)
	if len(leasesA) != n {
		t.Fatalf("worker-a leased %d shards, want %d", len(leasesA), n)
	}
	// Nothing more to grant while the leases are live.
	if extra := c.Lease("worker-b", n); len(extra) != 0 {
		t.Fatalf("worker-b got %d leases while worker-a's are live", len(extra))
	}

	// worker-a goes silent past the TTL: worker-b takes over everything.
	clk.Advance(2 * time.Second)
	leasesB := c.Lease("worker-b", n+5)
	if len(leasesB) != n {
		t.Fatalf("worker-b reassigned %d shards after expiry, want %d", len(leasesB), n)
	}
	if got := c.Status().Counters.LeasesExpired; got != uint64(n) {
		t.Fatalf("LeasesExpired = %d, want %d", got, n)
	}

	// worker-a's heartbeat now reports every lease invalid.
	refsA := make([]LeaseRef, len(leasesA))
	for i, l := range leasesA {
		refsA[i] = l.Ref
	}
	for i, ok := range c.Heartbeat("worker-a", refsA) {
		if ok {
			t.Fatalf("expired lease %d still reported valid", i)
		}
	}

	// A late success from worker-a's superseded lease is still accepted:
	// shard results are deterministic, first delivery wins.
	resp := c.Result("worker-a", leasesA[0].Ref, fragFor(leasesA[0]), "")
	if !resp.Accepted || resp.Stale {
		t.Fatalf("late deterministic success rejected: %+v", resp)
	}
	// worker-b delivering the same shard afterwards is stale.
	if resp := c.Result("worker-b", leasesB[0].Ref, fragFor(leasesB[0]), ""); !resp.Stale {
		t.Fatalf("duplicate shard delivery not stale: %+v", resp)
	}

	// worker-b finishes the rest; the job merges in shard order.
	for _, l := range leasesB[1:] {
		c.Result("worker-b", l.Ref, fragFor(l), "")
	}
	doc := (<-docs).(report.MechanismsDoc)
	if err := <-errs; err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(doc.Mechanisms) != n {
		t.Fatalf("merged %d ISP entries, want %d", len(doc.Mechanisms), n)
	}
	for i, isp := range world.MechanismRosterISPs() {
		if doc.Mechanisms[i].ISP != isp {
			t.Fatalf("merged entry %d = %s, want %s (shard order lost)", i, doc.Mechanisms[i].ISP, isp)
		}
	}
	ctr := c.Status().Counters
	if ctr.JobsDone != 1 || ctr.ShardsDone != uint64(n) {
		t.Fatalf("counters after completion: %+v", ctr)
	}
}

func TestHeartbeatExtendsLease(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := NewCoordinator(Options{LeaseTTL: time.Second, Now: clk.Now})
	docs, errs := startJob(t, c)

	leases := c.Lease("worker-a", 100)
	refs := make([]LeaseRef, len(leases))
	for i, l := range leases {
		refs[i] = l.Ref
	}
	// Renew at 0.8 TTL, then check at 1.5 TTL: still inside the renewed
	// window, so nothing is reassignable.
	clk.Advance(800 * time.Millisecond)
	for i, ok := range c.Heartbeat("worker-a", refs) {
		if !ok {
			t.Fatalf("live lease %d reported invalid", i)
		}
	}
	clk.Advance(700 * time.Millisecond)
	if stolen := c.Lease("worker-b", 100); len(stolen) != 0 {
		t.Fatalf("heartbeat did not extend leases: %d reassigned", len(stolen))
	}
	// Wrong epoch never validates.
	bad := refs[0]
	bad.Epoch += 7
	if ok := c.Heartbeat("worker-a", []LeaseRef{bad})[0]; ok {
		t.Fatal("heartbeat validated a wrong-epoch ref")
	}
	for _, l := range leases {
		c.Result("worker-a", l.Ref, fragFor(l), "")
	}
	<-docs
	if err := <-errs; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestReleaseReturnsShardsImmediately(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := NewCoordinator(Options{LeaseTTL: time.Hour, Now: clk.Now})
	docs, errs := startJob(t, c)

	leases := c.Lease("worker-a", 100)
	refs := make([]LeaseRef, len(leases))
	for i, l := range leases {
		refs[i] = l.Ref
	}
	c.Release("worker-a", refs)
	if got := c.Status().Counters.LeasesReleased; got != uint64(len(leases)) {
		t.Fatalf("LeasesReleased = %d, want %d", got, len(leases))
	}
	// No clock advance needed: the shards are pending again.
	handoff := c.Lease("worker-b", 100)
	if len(handoff) != len(leases) {
		t.Fatalf("worker-b picked up %d released shards, want %d", len(handoff), len(leases))
	}
	for _, l := range handoff {
		c.Result("worker-b", l.Ref, fragFor(l), "")
	}
	<-docs
	if err := <-errs; err != nil {
		t.Fatalf("Run: %v", err)
	}
}

func TestShardFailureBudget(t *testing.T) {
	clk := &fakeClock{t: time.Unix(1000, 0)}
	c := NewCoordinator(Options{LeaseTTL: time.Hour, MaxAttempts: 2, Now: clk.Now})
	docs, errs := startJob(t, c)

	for attempt := 0; attempt < 2; attempt++ {
		leases := c.Lease("worker-a", 1)
		if len(leases) != 1 {
			t.Fatalf("attempt %d: leased %d shards, want 1", attempt, len(leases))
		}
		c.Result("worker-a", leases[0].Ref, nil, "probe blew up")
	}
	<-docs
	err := <-errs
	if err == nil || !strings.Contains(err.Error(), "failed 2 times") {
		t.Fatalf("job error = %v, want shard-failure budget exhaustion", err)
	}
	ctr := c.Status().Counters
	if ctr.ShardsRetried != 2 || ctr.JobsFailed != 1 {
		t.Fatalf("counters after failure: %+v", ctr)
	}
}

// TestResultRejectsMisshapenFragments: a fragment off the wire must have
// its job kind's shape. Result counts an identify-shaped fragment, or one
// from a worker built when every kind shared one fragment type, as a
// failed attempt of its shard, so a mechanisms job whose every attempt
// is of the wrong shape fails with the decode error, naming the kind and
// the field, instead of merging into an empty document.
func TestResultRejectsMisshapenFragments(t *testing.T) {
	for field, body := range map[string]string{
		"installations": `{"installations":[{"ip":"10.0.0.1","products":["Netsweeper"]}],"candidates":{"Netsweeper":["10.0.0.1"]}}`,
		"pieces":        `{"pieces":["Etisalat"],"mechanisms":[{"isp":"Etisalat","tested":1}]}`,
	} {
		c := NewCoordinator(Options{LeaseTTL: time.Hour, MaxAttempts: 2})
		docs, errs := startJob(t, c)
		for attempt := 0; attempt < 2; attempt++ {
			leases := c.Lease("worker-a", 100)
			if len(leases) != len(world.MechanismRosterISPs()) {
				t.Fatalf("attempt %d: leased %d shards, want every shard back", attempt, len(leases))
			}
			for _, l := range leases {
				c.Result("worker-a", l.Ref, wireFragment(json.RawMessage(body)), "")
			}
		}
		doc := <-docs
		if err := <-errs; err == nil || !strings.Contains(err.Error(), "decode mechanisms fragment") || !strings.Contains(err.Error(), `"`+field+`"`) {
			t.Errorf("%s: Run = %+v, %v; want an error naming the kind and the field %q", body, doc, err, field)
		}
		if ctr := c.Status().Counters; ctr.JobsFailed != 1 || ctr.ShardsDone != 0 {
			t.Errorf("%s: counters %+v; want the job failed and no shard done", body, ctr)
		}
	}
}

// TestResultRetriesMisshapenFragment: a fragment of the wrong shape sends
// its shard back to pending, so another worker's good fragment for it
// still completes the job, with the document a single process makes.
func TestResultRetriesMisshapenFragment(t *testing.T) {
	req := plan.Request{Kind: plan.KindMechanisms, ISPs: world.MechanismRosterISPs()[:2]}
	if err := plan.Normalize(&req); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	runner := plan.NewRunner()
	defer runner.Close()
	want, _, err := runner.Run(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	c := NewCoordinator(Options{LeaseTTL: time.Hour})
	docs, errs := startRequest(t, c, req)
	bad := c.Lease("worker-a", 1)
	if len(bad) != 1 {
		t.Fatalf("worker-a leased %d shards, want 1", len(bad))
	}
	if resp := c.Result("worker-a", bad[0].Ref, wireFragment(json.RawMessage(`{"installations":[]}`)), ""); !resp.Accepted {
		t.Fatalf("misshapen fragment: %+v", resp)
	}
	leases := c.Lease("worker-b", 100)
	if len(leases) != 2 {
		t.Fatalf("worker-b leased %d shards, want both, the retried one included", len(leases))
	}
	for _, l := range leases {
		frag, err := runner.RunShard(ctx, l.Spec)
		if err != nil {
			t.Fatal(err)
		}
		c.Result("worker-b", l.Ref, wireFragment(frag), "")
	}
	doc := <-docs
	if err := <-errs; err != nil {
		t.Fatalf("Run: %v", err)
	}
	got, _ := json.Marshal(doc)       //nolint:errcheck // report docs always marshal
	wantJSON, _ := json.Marshal(want) //nolint:errcheck
	if string(got) != string(wantJSON) {
		t.Fatalf("clustered document differs from the single-process one\ncluster: %.400s\nsingle:  %.400s", got, wantJSON)
	}
	if ctr := c.Status().Counters; ctr.ShardsRetried != 1 || ctr.JobsDone != 1 {
		t.Fatalf("counters %+v; want one retried shard and the job done", ctr)
	}
}

func TestRunAbortsOnContextCancel(t *testing.T) {
	c := NewCoordinator(Options{})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, _, err := c.Run(ctx, plan.Request{Kind: plan.KindMechanisms}); !errors.Is(err, context.Canceled) {
		t.Fatalf("Run under canceled ctx = %v, want context.Canceled", err)
	}
	// The aborted job must not be leasable.
	if leases := c.Lease("worker-a", 100); len(leases) != 0 {
		t.Fatalf("aborted job still granted %d leases", len(leases))
	}
}

// TestRunZeroShards submits a request whose ISP filter matches nothing:
// Run must complete immediately with the empty merged document instead
// of enqueueing a job no Result can ever finish.
func TestRunZeroShards(t *testing.T) {
	completed := 0
	c := NewCoordinator(Options{OnComplete: func(plan.Request, any) { completed++ }})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	doc, _, err := c.Run(ctx, plan.Request{Kind: plan.KindMechanisms, ISPs: []string{"no-such-isp"}})
	if err != nil {
		t.Fatalf("zero-shard Run: %v", err)
	}
	md, ok := doc.(report.MechanismsDoc)
	if !ok || len(md.Mechanisms) != 0 {
		t.Fatalf("zero-shard doc = %#v, want empty MechanismsDoc", doc)
	}
	if completed != 1 {
		t.Fatalf("OnComplete fired %d times, want 1", completed)
	}
	ctr := c.Status().Counters
	if ctr.Jobs != 1 || ctr.JobsDone != 1 || ctr.Shards != 0 {
		t.Fatalf("zero-shard counters: %+v", ctr)
	}
}

// ---- worker loop against a live coordinator ----

// bogusLeaseTransport corrupts every granted lease's shard kind, so the
// worker's runner deterministically fails the shard while both the lease
// and the worker's parent context stay perfectly healthy.
type bogusLeaseTransport struct {
	LocalTransport
}

func (t bogusLeaseTransport) Lease(ctx context.Context, req LeaseRequest) (LeaseResponse, error) {
	resp, err := t.LocalTransport.Lease(ctx, req)
	for i := range resp.Leases {
		resp.Leases[i].Spec.Kind = "bogus"
	}
	return resp, err
}

// TestWorkerPostsGenuineFailure pins the failure-reporting contract: a
// shard that genuinely fails under a live lease must be posted as an
// error result, so the coordinator counts the attempt and fails the job
// at MaxAttempts. (A worker that silently walks away instead leaves a
// deterministically failing shard re-leased after every TTL forever and
// the job hanging.)
func TestWorkerPostsGenuineFailure(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: time.Hour, MaxAttempts: 2})
	docs, errs := startJob(t, c)

	w := NewWorker("failer", bogusLeaseTransport{LocalTransport{Coord: c}})
	w.Poll = time.Millisecond
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	runDone := make(chan struct{})
	go func() {
		defer close(runDone)
		w.Run(ctx) //nolint:errcheck // exits on cancel
	}()

	select {
	case <-docs:
	case <-time.After(30 * time.Second):
		t.Fatal("job never finished: worker failures are not reaching the coordinator")
	}
	err := <-errs
	if err == nil || !strings.Contains(err.Error(), "failed 2 times") {
		t.Fatalf("job error = %v, want shard-failure budget exhaustion", err)
	}
	if ctr := c.Status().Counters; ctr.ShardsRetried < 2 || ctr.JobsFailed != 1 {
		t.Fatalf("counters after worker-reported failures: %+v", ctr)
	}
	cancel()
	<-runDone
}

// TestWorkerDrainReleasesLease checks the graceful-drain contract at the
// transport level: a worker draining between lease and execution hands
// the shard back, and another worker completes the job.
func TestWorkerDrainReleasesLease(t *testing.T) {
	c := NewCoordinator(Options{LeaseTTL: time.Hour})
	docs, errs := startJob(t, c)

	// Manually walk one worker through "drain arrived after leasing".
	leases := c.Lease("drainer", 1)
	if len(leases) != 1 {
		t.Fatalf("leased %d, want 1", len(leases))
	}
	w := NewWorker("drainer", LocalTransport{Coord: c})
	w.Drain()
	// Run notices draining before executing anything and returns nil;
	// the lease it never took stays with the coordinator until released.
	if err := w.Run(context.Background()); err != nil {
		t.Fatalf("draining Run = %v, want nil", err)
	}
	c.Release("drainer", []LeaseRef{leases[0].Ref})

	rest := c.Lease("finisher", 100)
	if len(rest) != len(world.MechanismRosterISPs()) {
		t.Fatalf("finisher leased %d shards, want the whole job back", len(rest))
	}
	for _, l := range rest {
		c.Result("finisher", l.Ref, fragFor(l), "")
	}
	<-docs
	if err := <-errs; err != nil {
		t.Fatalf("Run: %v", err)
	}
}
