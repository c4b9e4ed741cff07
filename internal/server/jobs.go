package server

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"
)

// JobState is a job's lifecycle position.
type JobState string

// Job lifecycle: queued -> running -> done | failed. Cancellation moves
// a queued or running job to failed with ErrJobCanceled as its error.
const (
	JobQueued  JobState = "queued"
	JobRunning JobState = "running"
	JobDone    JobState = "done"
	JobFailed  JobState = "failed"
)

// ErrJobCanceled is the failure recorded for canceled jobs.
var ErrJobCanceled = errors.New("job canceled")

// errShuttingDown rejects new work during drain.
var errShuttingDown = errors.New("server shutting down")

// job is one background pipeline execution.
type job struct {
	id      string
	kind    string
	key     string
	req     any
	ctx     context.Context
	cancel  context.CancelFunc
	done    chan struct{}
	created time.Time

	// Fields below are guarded by the manager's mutex.
	state    JobState
	errMsg   string
	result   []byte
	started  time.Time
	finished time.Time
}

// finishedJobs bounds the finished jobs, with their result bytes, that
// the job table keeps.
const finishedJobs = 64

// jobManager owns the background job queue: a fixed worker pool pops
// queued jobs in submission order, identical active requests dedupe onto
// one job, and shutdown stops intake and drains what is in flight. The
// job table holds every queued and running job and the last
// finishedJobs finished ones; an older finished job is forgotten.
type jobManager struct {
	run func(ctx context.Context, j *job) ([]byte, error)
	now func() time.Time

	mu       sync.Mutex
	cond     *sync.Cond
	jobs     map[string]*job
	order    []string
	finished []string        // ids of the finished jobs jobs holds, oldest first
	active   map[string]*job // canonical request key -> queued/running job
	queue    []*job
	seq      int
	closed   bool

	wg sync.WaitGroup
}

func newJobManager(workers int, now func() time.Time, run func(context.Context, *job) ([]byte, error)) *jobManager {
	if workers < 1 {
		workers = 2
	}
	m := &jobManager{
		run:    run,
		now:    now,
		jobs:   make(map[string]*job),
		active: make(map[string]*job),
	}
	m.cond = sync.NewCond(&m.mu)
	for i := 0; i < workers; i++ {
		m.wg.Add(1)
		go m.worker()
	}
	return m
}

// submit enqueues a job, deduplicating against an active (queued or
// running) job with the same canonical key. existing reports whether the
// returned job predates this call.
func (m *jobManager) submit(kind, key string, req any) (j *job, existing bool, err error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil, false, errShuttingDown
	}
	if cur, ok := m.active[key]; ok {
		return cur, true, nil
	}
	m.seq++
	ctx, cancel := context.WithCancel(context.Background())
	j = &job{
		id:      fmt.Sprintf("job-%d", m.seq),
		kind:    kind,
		key:     key,
		req:     req,
		ctx:     ctx,
		cancel:  cancel,
		done:    make(chan struct{}),
		created: m.now(),
		state:   JobQueued,
	}
	m.jobs[j.id] = j
	m.order = append(m.order, j.id)
	m.active[key] = j
	m.queue = append(m.queue, j)
	m.cond.Signal()
	return j, false, nil
}

// get returns a job by id.
func (m *jobManager) get(id string) (*job, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.jobs[id]
	return j, ok
}

// list returns every job the table holds, in submission order.
func (m *jobManager) list() []*job {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]*job, 0, len(m.order))
	for _, id := range m.order {
		out = append(out, m.jobs[id])
	}
	return out
}

// cancelJob cancels a queued or running job. It reports false when the
// job already finished.
func (m *jobManager) cancelJob(j *job) bool {
	m.mu.Lock()
	switch j.state {
	case JobDone, JobFailed:
		m.mu.Unlock()
		return false
	case JobQueued:
		// Finish it here: the worker will skip it when it reaches the
		// queue entry.
		m.finishLocked(j, nil, ErrJobCanceled)
		m.mu.Unlock()
		j.cancel()
		return true
	default: // running
		m.mu.Unlock()
		j.cancel() // the runner observes ctx and returns; worker records the failure
		return true
	}
}

// next blocks until a runnable job is available; nil means the manager
// is closed and the queue is drained.
func (m *jobManager) next() *job {
	m.mu.Lock()
	defer m.mu.Unlock()
	for {
		for len(m.queue) > 0 {
			j := m.queue[0]
			m.queue = m.queue[1:]
			if j.state != JobQueued { // canceled while queued
				continue
			}
			j.state = JobRunning
			j.started = m.now()
			return j
		}
		if m.closed {
			return nil
		}
		m.cond.Wait()
	}
}

func (m *jobManager) worker() {
	defer m.wg.Done()
	for {
		j := m.next()
		if j == nil {
			return
		}
		val, err := m.run(j.ctx, j)
		if err != nil && j.ctx.Err() != nil {
			err = ErrJobCanceled
		}
		m.mu.Lock()
		m.finishLocked(j, val, err)
		m.mu.Unlock()
		j.cancel()
	}
}

// finishLocked records a job's terminal state and forgets the oldest
// finished job beyond finishedJobs. Idempotent: cancellation and the
// worker may race to finish the same job.
func (m *jobManager) finishLocked(j *job, val []byte, err error) {
	if j.state == JobDone || j.state == JobFailed {
		return
	}
	j.finished = m.now()
	if err != nil {
		j.state = JobFailed
		j.errMsg = err.Error()
	} else {
		j.state = JobDone
		j.result = val
	}
	delete(m.active, j.key)
	close(j.done)
	m.finished = append(m.finished, j.id)
	if len(m.finished) > finishedJobs {
		delete(m.jobs, m.finished[0])
		m.order = slices.DeleteFunc(m.order, func(id string) bool { return id == m.finished[0] })
		m.finished = m.finished[1:]
	}
}

// counts is the /metrics state census.
func (m *jobManager) counts() JobCountsDoc {
	m.mu.Lock()
	defer m.mu.Unlock()
	var c JobCountsDoc
	for _, j := range m.jobs {
		switch j.state {
		case JobQueued:
			c.Queued++
		case JobRunning:
			c.Running++
		case JobDone:
			c.Done++
		case JobFailed:
			c.Failed++
		}
	}
	return c
}

// shutdown stops intake and drains: workers finish the queue and every
// in-flight job before returning. If ctx expires first, remaining jobs
// are hard-canceled and shutdown waits for the workers to observe that.
func (m *jobManager) shutdown(ctx context.Context) error {
	m.mu.Lock()
	m.closed = true
	m.cond.Broadcast()
	m.mu.Unlock()

	drained := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(drained)
	}()
	select {
	case <-drained:
		return nil
	case <-ctx.Done():
		m.mu.Lock()
		for _, j := range m.jobs {
			if j.state == JobQueued || j.state == JobRunning {
				j.cancel()
				if j.state == JobQueued {
					m.finishLocked(j, nil, ErrJobCanceled)
				}
			}
		}
		m.cond.Broadcast()
		m.mu.Unlock()
		<-drained
		return ctx.Err()
	}
}

// JobDoc is the JSON rendering of a job for /v1/jobs responses.
type JobDoc struct {
	ID       string          `json:"id"`
	Kind     string          `json:"kind"`
	State    JobState        `json:"state"`
	Created  time.Time       `json:"created"`
	Started  *time.Time      `json:"started,omitempty"`
	Finished *time.Time      `json:"finished,omitempty"`
	Error    string          `json:"error,omitempty"`
	Result   json.RawMessage `json:"result,omitempty"`
	// Degraded mirrors the result document's top-level degraded marker,
	// so job listings surface partial runs without shipping result bodies.
	Degraded bool `json:"degraded,omitempty"`
}

// doc freezes a job into its JSON form. includeResult controls whether
// the (possibly large) result body rides along.
func (m *jobManager) doc(j *job, includeResult bool) JobDoc {
	m.mu.Lock()
	defer m.mu.Unlock()
	d := JobDoc{
		ID:      j.id,
		Kind:    j.kind,
		State:   j.state,
		Created: j.created,
		Error:   j.errMsg,
	}
	if !j.started.IsZero() {
		t := j.started
		d.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		d.Finished = &t
	}
	if j.state == JobDone {
		var probe struct {
			Degraded bool `json:"degraded"`
		}
		if json.Unmarshal(j.result, &probe) == nil {
			d.Degraded = probe.Degraded
		}
		if includeResult {
			d.Result = json.RawMessage(j.result)
		}
	}
	return d
}
