package plan

import (
	"context"
	"fmt"
	"sync"

	"filtermap/internal/engine"
	"filtermap/internal/identify"
	"filtermap/internal/scanner"
	"filtermap/internal/store"
	"filtermap/internal/world"
)

// maxReplicas caps the runner's replica table. A nation-scale replica
// (world plus banner index) is about 110 MB, and a worker accepts
// whatever world options its coordinator sends, so the table would
// otherwise grow by one scanned world per distinct config. Past the cap
// the least recently used replica that no shard is using is evicted and
// its world closed; adopted replicas are never evicted. The table
// exceeds the cap only while more than maxReplicas replicas are busy at
// once.
const maxReplicas = 4

// Runner executes shards. Replica kinds run on long-lived world
// replicas keyed by store.ConfigHash of the shard's world options, each
// with an Epoch scanned on first use; every other kind builds a fresh
// world per shard. Cluster workers and the single-process server use
// the same Runner, so a standalone run is a one-shard cluster.
type Runner struct {
	engOpts []engine.Option

	mu       sync.Mutex
	replicas map[string]*replica
	stamp    uint64 // LRU clock for replica eviction
	closed   bool
}

// Epoch is what every shard on one replica shares of its world: the
// banner index, scanned once, and each identify candidate's validation
// outcome, reached at most once. The replica's world is not changed
// between its shards, so both stay true for its lifetime. Validated
// holds at most one entry per distinct candidate address of Index,
// which is fixed after its scan; it is freed with the replica.
type Epoch struct {
	Index     *scanner.Index
	Validated *identify.Outcomes
}

// replica is one world and its epoch. The world is built and the epoch
// scanned lazily under mu; refs and used are guarded by Runner.mu.
type replica struct {
	mu      sync.Mutex
	world   *world.World
	epoch   *Epoch
	adopted bool // the caller owns the world: never evicted or closed here

	refs int    // shards currently running on the replica
	used uint64 // stamp of the latest acquire
}

// NewRunner builds a runner. Engine options tune every world it builds.
func NewRunner(engOpts ...engine.Option) *Runner {
	return &Runner{engOpts: engOpts, replicas: make(map[string]*replica)}
}

// Adopt registers a caller-owned world as the replica for opts, so
// replica shards under those options run on it instead of building a
// second world. Its banner index is scanned on first use. The caller
// must not change the world while the runner holds it, and the runner
// never closes it.
func (r *Runner) Adopt(opts world.Options, w *world.World) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.replicas[store.ConfigHash(opts)] = &replica{world: w, adopted: true}
}

// Close closes every replica world the runner built. The runner is
// unusable afterwards.
func (r *Runner) Close() {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.closed {
		return
	}
	r.closed = true
	for _, rep := range r.replicas {
		rep.close()
	}
	r.replicas = nil
}

// Run executes a request in this process as a one-shard cluster: the
// whole request in one shard, run by RunShard exactly as a worker runs
// its shards, then merged.
func (r *Runner) Run(ctx context.Context, req Request) (any, bool, error) {
	p, err := lookup(req.Kind)
	if err != nil {
		return nil, false, err
	}
	return whole(ctx, p, req, func(spec ShardSpec) (*Fragment, error) {
		return r.RunShard(ctx, spec)
	})
}

// RunShard positions a world for the shard's kind and executes it.
func (r *Runner) RunShard(ctx context.Context, spec ShardSpec) (*Fragment, error) {
	p, err := lookup(spec.Kind)
	if err != nil {
		return nil, err
	}
	if p.Replica {
		rep, err := r.acquire(ctx, spec.World)
		if err != nil {
			return nil, err
		}
		defer r.release(rep)
		return p.Exec(ctx, rep.world, rep.epoch, spec)
	}
	w, err := world.Build(spec.World, r.engOpts...)
	if err != nil {
		return nil, err
	}
	defer w.Close()
	if p.Advance > 0 {
		w.Clock.Advance(p.Advance)
	}
	return p.Exec(ctx, w, nil, spec)
}

// acquire returns the replica for opts with its world built and its
// epoch scanned, pinned against eviction until release.
func (r *Runner) acquire(ctx context.Context, opts world.Options) (*replica, error) {
	key := store.ConfigHash(opts)
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, fmt.Errorf("plan: runner closed")
	}
	rep, ok := r.replicas[key]
	if !ok {
		rep = &replica{}
		r.replicas[key] = rep
	}
	rep.refs++
	r.stamp++
	rep.used = r.stamp
	victims := r.evictLocked()
	r.mu.Unlock()
	closeAll(victims)

	rep.mu.Lock()
	err := rep.ready(ctx, opts, r.engOpts)
	rep.mu.Unlock()
	if err != nil {
		r.release(rep)
		return nil, err
	}
	return rep, nil
}

// release unpins a replica and evicts down to the cap.
func (r *Runner) release(rep *replica) {
	r.mu.Lock()
	rep.refs--
	victims := r.evictLocked()
	r.mu.Unlock()
	closeAll(victims)
}

// evictLocked removes least recently used idle replicas until the table
// is within maxReplicas (or only busy and adopted ones remain), and
// returns them for closing outside the lock.
func (r *Runner) evictLocked() []*replica {
	var victims []*replica
	for len(r.replicas) > maxReplicas {
		var lruKey string
		var lru *replica
		for key, rep := range r.replicas {
			if rep.refs == 0 && !rep.adopted && (lru == nil || rep.used < lru.used) {
				lruKey, lru = key, rep
			}
		}
		if lru == nil {
			break
		}
		delete(r.replicas, lruKey)
		victims = append(victims, lru)
	}
	return victims
}

func closeAll(reps []*replica) {
	for _, rep := range reps {
		rep.close()
	}
}

// ready builds the replica's world and scans its epoch, whichever is
// missing. A failed scan leaves the replica without an epoch for the
// next acquire to retry.
func (rep *replica) ready(ctx context.Context, opts world.Options, engOpts []engine.Option) error {
	if rep.world == nil {
		w, err := world.Build(opts, engOpts...)
		if err != nil {
			return fmt.Errorf("plan: build replica: %w", err)
		}
		rep.world = w
	}
	if rep.epoch == nil {
		idx, err := rep.world.Scanner().ScanNetwork(ctx)
		if err != nil {
			return fmt.Errorf("plan: replica scan: %w", err)
		}
		rep.epoch = &Epoch{Index: idx, Validated: &identify.Outcomes{}}
	}
	return nil
}

func (rep *replica) close() {
	if rep.world != nil && !rep.adopted {
		rep.world.Close()
	}
}
