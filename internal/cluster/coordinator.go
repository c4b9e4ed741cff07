package cluster

import (
	"context"
	"fmt"
	"sort"
	"sync"
	"time"

	"filtermap/internal/plan"
)

const (
	// shardAttempts bounds failed executions per shard before the whole
	// job fails.
	shardAttempts = 3
	// workerLeases is how many lease TTLs a silent worker stays in the
	// status table.
	workerLeases = 3
)

// Options tunes a Coordinator.
type Options struct {
	// LeaseTTL is how long a granted lease lives without a heartbeat
	// before the shard is reassignable (0 = 10s).
	LeaseTTL time.Duration
	// Now substitutes the clock in tests (nil = time.Now).
	Now func() time.Time
}

// Coordinator owns the shard table: it splits requests into shards,
// leases them to polling workers, expires and reassigns dead leases,
// and merges fragments into final documents. All methods are safe for
// concurrent use.
type Coordinator struct {
	opts Options

	mu       sync.Mutex
	workers  map[string]*workerState
	jobs     map[string]*jobState
	order    []string // active job IDs, submission order
	finished []JobStatusDoc
	jobSeq   uint64
	counters Counters
}

type workerState struct {
	id       string
	lastSeen time.Time
}

// Shard lease states.
const (
	shardPending = iota
	shardLeased
	shardDone
)

type shardState struct {
	spec     plan.ShardSpec
	state    int
	epoch    int
	worker   string
	deadline time.Time
	attempts int
	frag     *plan.Fragment
}

// Job states (JobStatusDoc.State).
const (
	jobRunning = "running"
	jobMerging = "merging"
	jobDone    = "done"
	jobFailed  = "failed"
)

type jobState struct {
	id       string
	req      plan.Request
	shards   []*shardState
	done     int
	state    string
	doc      any
	degraded bool
	err      error
	ch       chan struct{}
}

// finishedTail bounds the finished-job history kept for status.
const finishedTail = 32

// NewCoordinator builds a coordinator.
func NewCoordinator(opts Options) *Coordinator {
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = 10 * time.Second
	}
	if opts.Now == nil {
		opts.Now = time.Now
	}
	return &Coordinator{
		opts:    opts,
		workers: make(map[string]*workerState),
		jobs:    make(map[string]*jobState),
	}
}

// Run splits the request into shards, waits for workers to lease and
// complete them, and returns the merged document and whether it is
// degraded. It blocks until the job completes, fails (a shard exhausted
// its attempts), or ctx ends — an abandoned job stops leasing
// immediately.
func (c *Coordinator) Run(ctx context.Context, req plan.Request) (any, bool, error) {
	specs, err := plan.Split(req)
	if err != nil {
		return nil, false, err
	}
	if len(specs) == 0 {
		// Nothing to lease: merging is triggered by the last shard's
		// Result, so an enqueued zero-shard job could never complete.
		// Merge the empty fragment set immediately instead — the same
		// (empty) document the single-process path produces.
		doc, degraded, err := plan.Merge(req, nil)
		if err != nil {
			return nil, false, err
		}
		c.mu.Lock()
		c.counters.Jobs++
		c.counters.JobsDone++
		c.mu.Unlock()
		return doc, degraded, nil
	}

	c.mu.Lock()
	c.jobSeq++
	j := &jobState{
		id:     fmt.Sprintf("c%d", c.jobSeq),
		req:    req,
		shards: make([]*shardState, len(specs)),
		state:  jobRunning,
		ch:     make(chan struct{}),
	}
	for i, spec := range specs {
		j.shards[i] = &shardState{spec: spec}
	}
	c.jobs[j.id] = j
	c.order = append(c.order, j.id)
	c.counters.Jobs++
	c.counters.Shards += uint64(len(specs))
	c.mu.Unlock()

	select {
	case <-ctx.Done():
		c.abort(j, ctx.Err())
		// The merger may have won the race; report its outcome if so.
		select {
		case <-j.ch:
			return j.doc, j.degraded, j.err
		default:
			return nil, false, ctx.Err()
		}
	case <-j.ch:
		return j.doc, j.degraded, j.err
	}
}

// abort fails an abandoned job so its shards stop being leased. A job
// already merging (or finished) is left to the merger.
func (c *Coordinator) abort(j *jobState, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if j.state != jobRunning {
		return
	}
	j.state = jobFailed
	j.err = err
	c.counters.JobsFailed++
	c.retireLocked(j)
	close(j.ch)
}

// retireLocked moves a finished job out of the active table into the
// bounded status tail.
func (c *Coordinator) retireLocked(j *jobState) {
	delete(c.jobs, j.id)
	for i, id := range c.order {
		if id == j.id {
			c.order = append(c.order[:i], c.order[i+1:]...)
			break
		}
	}
	c.finished = append(c.finished, c.jobDocLocked(j))
	if len(c.finished) > finishedTail {
		c.finished = c.finished[len(c.finished)-finishedTail:]
	}
}

// touchWorkerLocked admits or refreshes a worker and drops workers
// silent for workerLeases TTLs from the status table.
func (c *Coordinator) touchWorkerLocked(id string, now time.Time) {
	if w, ok := c.workers[id]; ok {
		w.lastSeen = now
	} else {
		c.workers[id] = &workerState{id: id, lastSeen: now}
		c.counters.WorkersAdmitted++
	}
	for wid, w := range c.workers {
		if now.Sub(w.lastSeen) > workerLeases*c.opts.LeaseTTL {
			delete(c.workers, wid)
			c.counters.WorkersExpired++
		}
	}
}

// Lease grants the worker at most one shard: the first pending shard of
// the oldest running job, else the first shard whose lease deadline has
// passed, whichever worker held it. A worker asks only between shards,
// so it no longer runs a lease of its own that expired, and a worker
// restarted under its old id takes that lease back like any other.
// Empty response = no work; poll again.
func (c *Coordinator) Lease(worker string) []ShardLease {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.touchWorkerLocked(worker, now)

	j, i := c.nextShardLocked(func(sh *shardState) bool { return sh.state == shardPending })
	if j == nil {
		j, i = c.nextShardLocked(func(sh *shardState) bool { return sh.state == shardLeased && now.After(sh.deadline) })
		if j == nil {
			return nil
		}
		c.counters.LeasesExpired++
	}
	sh := j.shards[i]
	sh.state = shardLeased
	sh.worker = worker
	sh.epoch++
	sh.deadline = now.Add(c.opts.LeaseTTL)
	c.counters.LeasesGranted++
	return []ShardLease{{
		Ref:      LeaseRef{Job: j.id, Shard: i, Epoch: sh.epoch},
		Spec:     sh.spec,
		Deadline: sh.deadline,
	}}
}

// nextShardLocked returns the first shard, oldest running job first,
// that ok accepts (nil when none does).
func (c *Coordinator) nextShardLocked(ok func(*shardState) bool) (*jobState, int) {
	for _, id := range c.order {
		j := c.jobs[id]
		if j.state != jobRunning {
			continue
		}
		for i, sh := range j.shards {
			if ok(sh) {
				return j, i
			}
		}
	}
	return nil, 0
}

// Heartbeat refreshes the worker's leases, reporting positionally which
// are still valid. An invalid entry means the lease expired and was
// reassigned — the worker should abandon that shard.
func (c *Coordinator) Heartbeat(worker string, refs []LeaseRef) []bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	c.touchWorkerLocked(worker, now)
	c.counters.Heartbeats++
	valid := make([]bool, len(refs))
	for i, ref := range refs {
		sh := c.shardLocked(ref)
		if sh == nil || sh.state != shardLeased || sh.worker != worker || sh.epoch != ref.Epoch {
			continue
		}
		sh.deadline = now.Add(c.opts.LeaseTTL)
		valid[i] = true
	}
	return valid
}

// Release hands leases back without results — the graceful-drain path.
// Released shards return to pending immediately, so the next poll from
// any worker picks them up without waiting out the lease TTL. The
// worker leaves the status table.
func (c *Coordinator) Release(worker string, refs []LeaseRef) {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, ref := range refs {
		sh := c.shardLocked(ref)
		if sh == nil || sh.state != shardLeased || sh.worker != worker || sh.epoch != ref.Epoch {
			continue
		}
		sh.state = shardPending
		sh.worker = ""
		c.counters.LeasesReleased++
	}
	delete(c.workers, worker)
}

// shardLocked resolves a lease ref to its shard (nil when the job is
// gone or the ref is out of range).
func (c *Coordinator) shardLocked(ref LeaseRef) *shardState {
	j, ok := c.jobs[ref.Job]
	if !ok || ref.Shard < 0 || ref.Shard >= len(j.shards) {
		return nil
	}
	return j.shards[ref.Shard]
}

// shardKey names a shard in a failed-shard error: its kind plus the
// first piece of its probe-space slice.
func shardKey(spec *plan.ShardSpec) string {
	key := spec.Kind
	if len(spec.Pieces) > 0 {
		key += "/" + spec.Pieces[0]
	}
	return key
}

// Result ingests one shard outcome. Success marks the shard done — even
// under a superseded epoch: shard results are deterministic, so the
// first delivery wins regardless of which lease produced it. A fragment
// must have its job kind's shape (plan.Fragment.Decode); one that does
// not, from another kind or another build, is a failure of its shard
// like a worker-reported error. Failure requeues the shard until
// shardAttempts, then fails the job. The last shard's success triggers
// the merge and wakes Run.
func (c *Coordinator) Result(worker string, ref LeaseRef, frag *plan.Fragment, errMsg string) ResultResponse {
	c.mu.Lock()
	c.touchWorkerLocked(worker, c.opts.Now())
	j, ok := c.jobs[ref.Job]
	if !ok || ref.Shard < 0 || ref.Shard >= len(j.shards) || j.state != jobRunning {
		c.counters.StaleResults++
		c.mu.Unlock()
		return ResultResponse{Stale: true}
	}
	sh := j.shards[ref.Shard]
	if sh.state == shardDone {
		c.counters.StaleResults++
		c.mu.Unlock()
		return ResultResponse{Stale: true}
	}

	if errMsg == "" {
		if err := frag.Decode(j.req.Kind); err != nil {
			errMsg = err.Error()
		}
	}
	if errMsg != "" {
		if sh.epoch != ref.Epoch {
			// A superseded lease reporting failure carries no information
			// the live lease won't produce itself.
			c.counters.StaleResults++
			c.mu.Unlock()
			return ResultResponse{Stale: true}
		}
		sh.attempts++
		c.counters.ShardsRetried++
		if sh.attempts >= shardAttempts {
			j.state = jobFailed
			j.err = fmt.Errorf("cluster: shard %d (%s) failed %d times, last: %s",
				ref.Shard, shardKey(&sh.spec), sh.attempts, errMsg)
			c.counters.JobsFailed++
			c.retireLocked(j)
			close(j.ch)
			c.mu.Unlock()
			return ResultResponse{Accepted: true}
		}
		sh.state = shardPending
		sh.worker = ""
		c.mu.Unlock()
		return ResultResponse{Accepted: true}
	}

	sh.state = shardDone
	sh.frag = frag
	sh.worker = ""
	j.done++
	c.counters.ShardsDone++
	if j.done < len(j.shards) {
		c.mu.Unlock()
		return ResultResponse{Accepted: true}
	}

	// Last shard: this goroutine owns the merge. Mark the job merging so
	// aborts and late results leave it alone, and merge outside the lock.
	j.state = jobMerging
	frags := make([]*plan.Fragment, len(j.shards))
	for i, s := range j.shards {
		frags[i] = s.frag
	}
	req := j.req
	c.mu.Unlock()

	doc, degraded, err := plan.Merge(req, frags)

	c.mu.Lock()
	j.doc, j.degraded, j.err = doc, degraded, err
	if err != nil {
		j.state = jobFailed
		c.counters.JobsFailed++
	} else {
		j.state = jobDone
		c.counters.JobsDone++
	}
	c.retireLocked(j)
	close(j.ch)
	c.mu.Unlock()
	return ResultResponse{Accepted: true}
}

// Status builds the GET /v1/cluster document.
func (c *Coordinator) Status() StatusDoc {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.opts.Now()
	doc := StatusDoc{Enabled: true, Counters: c.counters}

	leases := make(map[string]int)
	for _, id := range c.order {
		j := c.jobs[id]
		doc.Jobs = append(doc.Jobs, c.jobDocLocked(j))
		for _, sh := range j.shards {
			if sh.state == shardLeased {
				leases[sh.worker]++
			}
		}
	}
	doc.Jobs = append(doc.Jobs, c.finished...)

	for _, w := range c.workers {
		doc.Workers = append(doc.Workers, WorkerStatusDoc{
			ID:     w.id,
			IdleMS: now.Sub(w.lastSeen).Milliseconds(),
			Leases: leases[w.id],
		})
	}
	sort.Slice(doc.Workers, func(i, j int) bool { return doc.Workers[i].ID < doc.Workers[j].ID })
	return doc
}

func (c *Coordinator) jobDocLocked(j *jobState) JobStatusDoc {
	d := JobStatusDoc{ID: j.id, Kind: j.req.Kind, State: j.state, Shards: len(j.shards), Done: j.done}
	if d.State == jobMerging {
		d.State = jobRunning
	}
	for _, sh := range j.shards {
		if sh.state == shardLeased {
			d.Leased++
		}
	}
	return d
}
