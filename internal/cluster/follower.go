package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"filtermap/internal/store"
)

// LogRecord is one replication-log entry served by GET /v1/cluster/log:
// a stored snapshot's metadata plus its canonical body.
type LogRecord struct {
	Meta store.Meta      `json:"meta"`
	Body json.RawMessage `json:"body"`
}

// LogResponse is the GET /v1/cluster/log body.
type LogResponse struct {
	Records []LogRecord `json:"records"`
	// LastSeq is the coordinator store's newest sequence number, so a
	// follower can tell how far behind it still is.
	LastSeq uint64 `json:"last_seq"`
}

// FollowerCounters is the replica-side census.
type FollowerCounters struct {
	// Applied counts records appended to the local store.
	Applied uint64 `json:"applied"`
	// LastSeq is the local store's newest sequence number.
	LastSeq uint64 `json:"last_seq"`
	// Errors counts failed sync rounds; LastError is the most recent.
	Errors    uint64 `json:"errors"`
	LastError string `json:"last_error,omitempty"`
}

// Follower tails a leader's replication log (its snapshot store) into a
// local store, making the local process a read-only serving replica.
// The follower verifies that every applied record lands with the same
// sequence number and content ID the leader assigned, and a record that
// does not (a log from a different store) is a hard error. It cannot
// see a local write: Sync resumes after the local store's last
// sequence number, so a record written locally hides the leader's
// record of that number. The local store must therefore take no other
// writes; fmserve with Follow set refuses POST /v1/snapshots and the
// monitor.
type Follower struct {
	// URL is the leader's base URL.
	URL string
	// Token is the shared cluster secret sent as the TokenHeader when
	// the leader's log is token-protected ("" = none).
	Token string
	// Store is the local replica store.
	Store *store.Store
	// Interval paces Run's polling (0 = 2s).
	Interval time.Duration
	// Client is the HTTP client (nil = 30s-timeout default).
	Client *http.Client
	// OnApply, when set, observes each applied record — the server
	// publishes watch events from here.
	OnApply func(store.Meta)

	mu       sync.Mutex
	counters FollowerCounters
}

// logBatch bounds how many records one sync pull requests.
const logBatch = 256

// Run polls the log until ctx ends.
func (f *Follower) Run(ctx context.Context) error {
	interval := f.Interval
	if interval <= 0 {
		interval = 2 * time.Second
	}
	for {
		if _, err := f.Sync(ctx); err != nil && ctx.Err() == nil {
			f.mu.Lock()
			f.counters.Errors++
			f.counters.LastError = err.Error()
			f.mu.Unlock()
		}
		if !sleepCtx(ctx, interval) {
			return ctx.Err()
		}
	}
}

// Sync pulls and applies every record newer than the local store's tail.
// It returns how many records were applied.
func (f *Follower) Sync(ctx context.Context) (int, error) {
	applied := 0
	for {
		after := f.Store.LastSeq()
		resp, err := f.fetch(ctx, after)
		if err != nil {
			return applied, err
		}
		for _, rec := range resp.Records {
			if err := f.apply(rec); err != nil {
				return applied, err
			}
			applied++
		}
		if len(resp.Records) < logBatch || f.Store.LastSeq() >= resp.LastSeq {
			return applied, nil
		}
	}
}

func (f *Follower) fetch(ctx context.Context, after uint64) (LogResponse, error) {
	var out LogResponse
	url := strings.TrimSuffix(f.URL, "/") + "/v1/cluster/log?after=" + strconv.FormatUint(after, 10) +
		"&limit=" + strconv.Itoa(logBatch)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return out, err
	}
	if f.Token != "" {
		req.Header.Set(TokenHeader, f.Token)
	}
	client := f.Client
	if client == nil {
		client = &http.Client{Timeout: 30 * time.Second}
	}
	resp, err := client.Do(req)
	if err != nil {
		return out, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(io.LimitReader(resp.Body, 256<<20))
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, fmt.Errorf("cluster: log fetch: %s: %s", resp.Status, strings.TrimSpace(string(data)))
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, fmt.Errorf("cluster: decode log response: %w", err)
	}
	return out, nil
}

// apply appends one log record locally and verifies convergence: the
// replica must assign the exact sequence number and content ID the
// coordinator did. The writer-side dedupe guarantee makes this hold for
// a faithful replica — the log never contains a record whose content
// matches the previous record of the same (kind, config) — so a dedupe
// or a seq/ID mismatch here means the replica diverged.
func (f *Follower) apply(rec LogRecord) error {
	meta, err := f.Store.Append(store.Snapshot{
		Kind:   rec.Meta.Kind,
		At:     rec.Meta.At,
		Config: rec.Meta.Config,
		Note:   rec.Meta.Note,
		Body:   rec.Body,
	})
	if err != nil {
		return fmt.Errorf("cluster: apply log record %d: %w", rec.Meta.Seq, err)
	}
	if meta.Deduped || meta.Seq != rec.Meta.Seq || meta.ID != rec.Meta.ID {
		return fmt.Errorf("cluster: replica diverged at record %d: applied as seq %d id %s (want seq %d id %s); "+
			"replicas must be read-only followers of one coordinator log",
			rec.Meta.Seq, meta.Seq, meta.ID, rec.Meta.Seq, rec.Meta.ID)
	}
	f.mu.Lock()
	f.counters.Applied++
	f.counters.LastSeq = meta.Seq
	f.mu.Unlock()
	if f.OnApply != nil {
		f.OnApply(meta)
	}
	return nil
}

// Counters returns a copy of the replica census.
func (f *Follower) Counters() FollowerCounters {
	f.mu.Lock()
	defer f.mu.Unlock()
	c := f.counters
	c.LastSeq = f.Store.LastSeq()
	return c
}
