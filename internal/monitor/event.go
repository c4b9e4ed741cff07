// Package monitor runs the paper's measurement continuously: a
// simclock-driven scheduler re-executes scan plans (identify,
// mechanisms, discovery) against a single long-lived world while a
// seeded churn driver rewrites that world between ticks — installations
// appearing, going dark, swapping vendors, and migrating between ASes.
// Every run appends an incremental snapshot to the store and, when the
// content changed, attaches the longitudinal diff against the previous
// snapshot of the same (kind, config). The resulting event stream is the
// system's live surface: fmserve fans it out over GET /v1/watch and
// cmd/fmmonitor renders it headless.
//
// The whole loop is byte-deterministic: same seed + same tick count ⇒
// the identical event sequence at any worker count. The scheduler and
// churn driver are single-threaded; parallelism lives inside the
// pipelines, which already guarantee order-stable results.
package monitor

import (
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"filtermap/internal/plan"
)

// Event types.
const (
	// EventChurn records one world mutation applied between ticks.
	EventChurn = "churn"
	// EventSnapshot records one plan run whose result was appended to
	// the store (Deduped reports whether the append collapsed onto the
	// previous record because nothing changed).
	EventSnapshot = "snapshot"
	// EventSkip records a plan firing suppressed because the previous
	// run of the same plan was still "running" in virtual time — the
	// pipeline advanced the clock past the next scheduled firing.
	EventSkip = "skip"
)

// ChurnOp describes one scripted world mutation.
type ChurnOp struct {
	// Op is "install", "remove", "upgrade" or "migrate".
	Op string `json:"op"`
	// IP locates the installation the op touched.
	IP string `json:"ip"`
	// Product is the product installed (install) or installed-to
	// (upgrade).
	Product string `json:"product,omitempty"`
	// FromProduct is the product replaced by an upgrade.
	FromProduct string `json:"from_product,omitempty"`
	// ASN, ASName and Country describe the announcing network (install:
	// the new AS; migrate: the AS the box moved to).
	ASN     int    `json:"asn,omitempty"`
	ASName  string `json:"as_name,omitempty"`
	Country string `json:"country,omitempty"`
}

// String renders the op as one log phrase.
func (c *ChurnOp) String() string {
	switch c.Op {
	case "install":
		return fmt.Sprintf("install %s at %s (AS%d %s, %s)", c.Product, c.IP, c.ASN, c.ASName, c.Country)
	case "remove":
		return fmt.Sprintf("remove installation at %s", c.IP)
	case "upgrade":
		return fmt.Sprintf("upgrade %s: %s -> %s", c.IP, c.FromProduct, c.Product)
	case "migrate":
		return fmt.Sprintf("migrate %s to AS%d %s, %s", c.IP, c.ASN, c.ASName, c.Country)
	default:
		return c.Op + " " + c.IP
	}
}

// Event is one entry in the monitor's stream. IDs are assigned by the
// Broker at publish time, monotonically from 1, and double as SSE event
// IDs for Last-Event-ID resume.
type Event struct {
	ID   uint64    `json:"id"`
	Tick int       `json:"tick"`
	At   time.Time `json:"at"` // virtual time
	Type string    `json:"type"`

	// Churn is set for EventChurn.
	Churn *ChurnOp `json:"churn,omitempty"`

	// Plan and Kind are set for EventSnapshot and EventSkip.
	Plan string `json:"plan,omitempty"`
	Kind string `json:"kind,omitempty"`

	// Snapshot fields (EventSnapshot).
	Seq        uint64 `json:"seq,omitempty"`
	SnapshotID string `json:"snapshot_id,omitempty"`
	Deduped    bool   `json:"deduped,omitempty"`
	// Diff is the change against the previous snapshot of the same
	// (kind, config); nil for the baseline snapshot and deduped appends.
	Diff *plan.Diff `json:"diff,omitempty"`

	// Note explains an EventSkip.
	Note string `json:"note,omitempty"`
}

// Summary is a one-line human rendering of the event (no ID — the ID is
// a stream coordinate, not part of the observation).
func (e *Event) Summary() string {
	switch e.Type {
	case EventChurn:
		return "churn: " + e.Churn.String()
	case EventSkip:
		return fmt.Sprintf("skip %s: %s", e.Plan, e.Note)
	case EventSnapshot:
		s := fmt.Sprintf("snapshot %s seq %d id %s", e.Kind, e.Seq, e.SnapshotID)
		if e.Deduped {
			return s + " (unchanged)"
		}
		if e.Diff != nil {
			return s + " (" + e.Diff.Summary() + ")"
		}
		return s + " (baseline)"
	default:
		return e.Type
	}
}

// MarshalSSE renders the event as one Server-Sent Events frame:
//
//	id: <id>
//	event: <type>
//	data: <json>
//
// followed by the blank delimiter line.
func (e *Event) MarshalSSE() ([]byte, error) {
	data, err := json.Marshal(e)
	if err != nil {
		return nil, err
	}
	var b strings.Builder
	fmt.Fprintf(&b, "id: %d\nevent: %s\ndata: %s\n\n", e.ID, e.Type, data)
	return []byte(b.String()), nil
}
