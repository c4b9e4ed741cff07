package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"net/http"

	"filtermap/internal/monitor"
	"filtermap/internal/plan"
	"filtermap/internal/store"
)

// This file is the longitudinal HTTP surface: POST /v1/snapshots runs a
// pipeline and persists its document in the snapshot store, GET
// /v1/snapshots[/{id}] reads the log back, and GET /v1/diff compares two
// stored snapshots through the plan registry's diff engine. Pipeline execution
// reuses the cache/singleflight path, diff results reuse the TTL result
// cache (keyed by content IDs, so a changed world config — hence a new
// snapshot ID — can never resurface a stale diff).

// snapshotRecordRequest is the POST /v1/snapshots body.
type snapshotRecordRequest struct {
	// Kind selects the pipeline: "identify", "characterize", "discover"
	// or "mechanisms".
	Kind string `json:"kind"`
	// Note is a free-form annotation stored with the snapshot.
	Note string `json:"note,omitempty"`
	// Request carries the kind's pipeline request (same schema as the
	// POST /v1/{kind} body).
	Request json.RawMessage `json:"request,omitempty"`
}

// handleSnapshotRecord runs the requested pipeline (through the result
// cache) and appends its document to the snapshot store, keyed by the
// base world's virtual time and the effective world-config hash. Identical
// consecutive content dedupes: the existing record is returned with 200
// instead of 201. A follower records nothing: its store holds only the
// leader's log, so it answers 409 naming the leader.
func (s *Server) handleSnapshotRecord(w http.ResponseWriter, r *http.Request) {
	if s.opts.Follow != "" {
		jsonError(w, http.StatusConflict, "this server is a read-only replica; record snapshots on its leader "+s.opts.Follow)
		return
	}
	var body snapshotRecordRequest
	if !s.decodeBody(w, r, &body) {
		return
	}
	if body.Kind == KindConfirm {
		jsonError(w, http.StatusBadRequest, fmt.Sprintf(
			"confirmation campaigns are single-use timelines; snapshot %q or %q instead", KindIdentify, KindCharacterize))
		return
	}
	req, err := s.parsePlanRequest(body.Kind, body.Request, "unknown snapshot kind %q")
	if err != nil {
		jsonError(w, errorStatus(err), err.Error())
		return
	}
	p, _ := plan.Lookup(req.Kind)
	key := s.requestKey(body.Kind, req)
	val, err := s.cachedRun(r.Context(), body.Kind, key, req)
	if err != nil {
		jsonError(w, errorStatus(err), err.Error())
		return
	}
	meta, err := s.snaps.Append(store.Snapshot{
		Kind:   p.StoreKind,
		At:     s.base.Clock.Now(),
		Config: store.ConfigHash(req.World),
		Note:   body.Note,
		Body:   val,
	})
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.metrics.snapshotRecorded(meta.Deduped)
	// Mirror the append onto the watch stream so subscribers see
	// API-recorded snapshots alongside monitor ticks.
	s.broker.Publish(monitor.Event{
		At: s.base.Clock.Now(), Type: monitor.EventSnapshot,
		Plan: "api", Kind: p.StoreKind,
		Seq: meta.Seq, SnapshotID: meta.ID, Deduped: meta.Deduped,
		Note: body.Note,
	})
	status := http.StatusCreated
	if meta.Deduped {
		status = http.StatusOK
	}
	writeJSON(w, status, meta)
}

func (s *Server) handleSnapshotList(w http.ResponseWriter, r *http.Request) {
	q := store.Query{Kind: r.URL.Query().Get("kind")}
	metas := s.snaps.List(q)
	if metas == nil {
		metas = []store.Meta{}
	}
	writeJSON(w, http.StatusOK, map[string]any{"snapshots": metas})
}

func (s *Server) handleSnapshotGet(w http.ResponseWriter, r *http.Request) {
	meta, body, err := s.snaps.Get(r.PathValue("id"))
	if err != nil {
		jsonError(w, storeErrorStatus(err), err.Error())
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"meta": meta, "body": json.RawMessage(body)})
}

// handleDiff compares two stored snapshots: GET /v1/diff?from=&to= with
// any Get selector (seq, id prefix, "latest", "latest:<kind>") on either
// side. Results are cached by content ID.
func (s *Server) handleDiff(w http.ResponseWriter, r *http.Request) {
	fromSel, toSel := r.URL.Query().Get("from"), r.URL.Query().Get("to")
	if fromSel == "" || toSel == "" {
		jsonError(w, http.StatusBadRequest, "from and to snapshot selectors required")
		return
	}
	fromMeta, fromBody, err := s.snaps.Get(fromSel)
	if err != nil {
		jsonError(w, storeErrorStatus(err), fmt.Sprintf("from: %v", err))
		return
	}
	toMeta, toBody, err := s.snaps.Get(toSel)
	if err != nil {
		jsonError(w, storeErrorStatus(err), fmt.Sprintf("to: %v", err))
		return
	}
	// Content IDs fully determine the diff (kind + config + body), so the
	// cache key needs nothing else.
	key := "diff:" + fromMeta.ID + ":" + toMeta.ID
	if val, ok := s.cache.get(key); ok {
		s.metrics.cacheHit()
		writeRawJSON(w, http.StatusOK, val)
		return
	}
	s.metrics.cacheMiss()
	d, err := s.diffEng.Diff(r.Context(),
		plan.Input{Meta: fromMeta, Body: fromBody},
		plan.Input{Meta: toMeta, Body: toBody},
	)
	if err != nil {
		status := errorStatus(err)
		if fromMeta.Kind != toMeta.Kind {
			status = http.StatusBadRequest // the selectors name snapshots of two kinds
		}
		jsonError(w, status, err.Error())
		return
	}
	val, err := json.Marshal(d)
	if err != nil {
		jsonError(w, http.StatusInternalServerError, err.Error())
		return
	}
	s.cache.put(key, val)
	s.metrics.diffComputed()
	writeRawJSON(w, http.StatusOK, val)
}

// storeErrorStatus maps store lookup errors onto HTTP statuses.
func storeErrorStatus(err error) int {
	switch {
	case errors.Is(err, store.ErrNotFound):
		return http.StatusNotFound
	case errors.Is(err, store.ErrAmbiguous):
		return http.StatusBadRequest
	default:
		return http.StatusInternalServerError
	}
}
