// Package cluster is the distributed scan-out layer: a coordinator that
// splits a plan request into shards (plan.Split), leases them to workers
// over an HTTP/JSON protocol, and merges the returned fragments
// (plan.Merge) into a report byte-identical to the single-process
// output.
//
// What a shard is and how it runs lives in internal/plan: a worker runs
// its leased shards on a plan.Runner, the same runner a standalone
// server uses for its one-shard runs. This package keeps only the
// distribution machinery — the coordinator's shard table and leases,
// the workers and the replication-log follower.
//
// A worker asks for one shard at a time and gets the first pending
// shard of the oldest running job. Shards are leased with a deadline:
// a worker that stops heartbeating loses its lease, and the shard goes
// to the next worker that asks once no shard is pending (lease expiry
// is the crash-recovery path). A merged document goes back to the caller and
// nowhere else: the coordinator's snapshot store holds only what was
// recorded into it, as a standalone server's does, and replicas tail
// that store over GET /v1/cluster/log (see Follower).
package cluster

import (
	"time"

	"filtermap/internal/plan"
)

// LeaseRef identifies one granted lease: the job, the shard index within
// it, and the lease epoch. The epoch increments on every (re)assignment,
// so a result posted under a stale epoch is recognizable.
type LeaseRef struct {
	Job   string `json:"job"`
	Shard int    `json:"shard"`
	Epoch int    `json:"epoch"`
}

// ShardLease is one granted lease: the ref, the work, and the deadline
// by which the worker must heartbeat or deliver.
type ShardLease struct {
	Ref      LeaseRef       `json:"ref"`
	Spec     plan.ShardSpec `json:"spec"`
	Deadline time.Time      `json:"deadline"`
}

// LeaseRequest is the POST /v1/cluster/lease body.
type LeaseRequest struct {
	Worker string `json:"worker"`
}

// LeaseResponse carries at most one granted lease. Empty means no
// pending work; the worker polls again.
type LeaseResponse struct {
	Leases []ShardLease `json:"leases"`
}

// ResultRequest is the POST /v1/cluster/result body: a completed
// fragment, or the error that ended the attempt.
type ResultRequest struct {
	Worker   string         `json:"worker"`
	Ref      LeaseRef       `json:"ref"`
	Fragment *plan.Fragment `json:"fragment,omitempty"`
	Error    string         `json:"error,omitempty"`
}

// ResultResponse acknowledges a posted result. Stale marks a result for
// a shard that had already completed under another lease (the work was
// not wasted validation-wise — results are deterministic — but it did
// not advance the job).
type ResultResponse struct {
	Accepted bool `json:"accepted"`
	Stale    bool `json:"stale,omitempty"`
}

// HeartbeatRequest renews the worker's leases. Refs lists every lease
// the worker still holds.
type HeartbeatRequest struct {
	Worker string     `json:"worker"`
	Refs   []LeaseRef `json:"refs,omitempty"`
}

// HeartbeatResponse reports, positionally for each ref, whether the
// lease is still the worker's. A false entry means the lease expired and
// was (or will be) reassigned: the worker should abandon that shard.
type HeartbeatResponse struct {
	Valid []bool `json:"valid"`
}

// ReleaseRequest hands leases back without results — the graceful-drain
// path. Released shards return to pending immediately, skipping the
// lease-expiry wait.
type ReleaseRequest struct {
	Worker string     `json:"worker"`
	Refs   []LeaseRef `json:"refs,omitempty"`
}

// Counters is the coordinator's monotonic event census, served under
// /metrics.
type Counters struct {
	Jobs            uint64 `json:"jobs"`
	JobsDone        uint64 `json:"jobs_done"`
	JobsFailed      uint64 `json:"jobs_failed"`
	Shards          uint64 `json:"shards"`
	ShardsDone      uint64 `json:"shards_done"`
	ShardsRetried   uint64 `json:"shards_retried"`
	LeasesGranted   uint64 `json:"leases_granted"`
	LeasesExpired   uint64 `json:"leases_expired"`
	LeasesReleased  uint64 `json:"leases_released"`
	Heartbeats      uint64 `json:"heartbeats"`
	StaleResults    uint64 `json:"stale_results"`
	WorkersExpired  uint64 `json:"workers_expired"`
	WorkersAdmitted uint64 `json:"workers_admitted"`
}

// StatusDoc is the GET /v1/cluster body.
type StatusDoc struct {
	Enabled bool   `json:"enabled"`
	Role    string `json:"role,omitempty"`
	// Workers lists the workers heard from within the last three lease
	// TTLs, sorted by ID.
	Workers []WorkerStatusDoc `json:"workers,omitempty"`
	// Jobs lists active jobs plus a bounded tail of finished ones.
	Jobs     []JobStatusDoc `json:"jobs,omitempty"`
	Counters Counters       `json:"counters"`
}

// WorkerStatusDoc is one worker's census entry.
type WorkerStatusDoc struct {
	ID string `json:"id"`
	// IdleMS is how long ago the worker last contacted the coordinator.
	IdleMS int64 `json:"idle_ms"`
	Leases int   `json:"leases"`
}

// JobStatusDoc is one job's shard census.
type JobStatusDoc struct {
	ID     string `json:"id"`
	Kind   string `json:"kind"`
	State  string `json:"state"` // running | done | failed
	Shards int    `json:"shards"`
	Done   int    `json:"done"`
	Leased int    `json:"leased"`
}
