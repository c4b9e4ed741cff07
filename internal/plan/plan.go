// Package plan is the registry of shardable measurement plans: §3
// identification, §5 characterization, the search-based discovery crawl
// and the DNS/RST/SNI mechanism survey. Each kind is one descriptor
// file holding both its run and its history: how to execute and merge
// it, and how two stored documents of it diff and count on a timeline.
// Everything that runs, stores or compares a plan — the fmserve service,
// the cluster coordinator and workers, the monitor and fmhist — looks
// the kind up here instead of carrying its own copy.
//
// A plan run is Split → Exec per shard → Merge. A cluster spreads the
// shards over workers; a single process runs the whole request as one
// shard holding every piece (Runner.Run). Both go through the same Exec
// and the same Merge, so standalone and clustered documents differ only
// in how the request was partitioned, and they are byte-identical
// because every Merge is exact across partitions. A shard's fragment
// holds a part of the kind's own type, declared in its descriptor file
// next to the Merge that reads it; the part is JSON only on the cluster
// wire.
//
// Confirmation campaigns are deliberately not plans: a campaign consumes
// the virtual timeline (clock advancement, vendor submission queues), so
// it is single-use and cannot be sharded or replayed per piece.
package plan

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"

	"filtermap/internal/engine"
	"filtermap/internal/world"
)

// Plan kinds: the pipeline names used as POST /v1/{kind} paths, job
// kinds and cluster wire kinds.
const (
	KindIdentify     = "identify"
	KindCharacterize = "characterize"
	KindDiscover     = "discover"
	KindMechanisms   = "mechanisms"
)

// Store kinds: the snapshot kinds plan documents are stored under. They
// are part of every snapshot's content ID.
const (
	StoreIdentify   = "identify"
	StoreTable4     = "table4"
	StoreDiscovery  = "discovery"
	StoreMechanisms = "mechanisms"
)

// Plan describes one shardable plan kind.
type Plan struct {
	// Kind is the pipeline name.
	Kind string
	// StoreKind is the snapshot kind the plan's documents are stored
	// under.
	StoreKind string

	// Replica positions runner shards on a long-lived world replica at
	// its Epoch: a banner index scanned once and each candidate
	// validated at most once. Otherwise each shard builds a fresh world
	// and advances its clock by Advance first.
	Replica bool
	Advance time.Duration

	// Normalize canonicalizes a request in place — only the fields the
	// kind reads kept, lists sorted and deduplicated, required world
	// features switched on — and rejects unknown names.
	Normalize func(req *Request) error
	// Pieces lists the probe-space units a request covers, in
	// single-process execution order (which is also the merge order).
	Pieces func(req Request) []string
	// Exec runs one shard on w and returns its fragment, holding a part
	// of the kind's own type. ep is the replica's epoch of w; nil on a
	// fresh world, where the kind scans and validates afresh.
	Exec func(ctx context.Context, w *world.World, ep *Epoch, spec ShardSpec) (*Fragment, error)
	// Merge rebuilds the final document from fragments in shard order
	// and reports whether it is degraded (the run survived partial
	// failures). Build it with mergeParts over the kind's part type,
	// which is also the type Fragment.Decode checks a wire fragment
	// against.
	Merge merger

	// DiffKey names the kind's section in the diff JSON.
	DiffKey string
	// Diff compares two stored documents (build it with diffDocs).
	Diff func(ctx context.Context, cfg engine.Config, from, to json.RawMessage) (Section, error)
	// Count adds one stored document's units to a timeline, per country
	// (build it with countDocs); Counts names that unit in the timeline
	// title ("Installations").
	Count  func(body json.RawMessage, add func(country string, n int)) error
	Counts string
}

var (
	byKind      = map[string]*Plan{}
	byStoreKind = map[string]*Plan{}
)

// register adds a descriptor; each descriptor file calls it from init.
func register(p *Plan) {
	if byKind[p.Kind] != nil || byStoreKind[p.StoreKind] != nil {
		panic("plan: duplicate registration of " + p.Kind)
	}
	byKind[p.Kind] = p
	byStoreKind[p.StoreKind] = p
}

// Lookup returns the descriptor for a pipeline kind.
func Lookup(kind string) (*Plan, bool) {
	p, ok := byKind[kind]
	return p, ok
}

// ForStoreKind returns the descriptor whose documents are stored under
// the given snapshot kind.
func ForStoreKind(storeKind string) (*Plan, bool) {
	p, ok := byStoreKind[storeKind]
	return p, ok
}

// Kinds lists every registered pipeline kind, sorted.
func Kinds() []string {
	out := make([]string, 0, len(byKind))
	for k := range byKind {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// StoreKinds lists every registered store kind, sorted.
func StoreKinds() []string {
	out := make([]string, 0, len(byStoreKind))
	for k := range byStoreKind {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func lookup(kind string) (*Plan, error) {
	p, ok := byKind[kind]
	if !ok {
		return nil, fmt.Errorf("plan: unknown kind %q", kind)
	}
	return p, nil
}

// Request is one plan to run: the effective world options it executes
// under plus the kind-specific parameters. It is also the cluster wire
// request.
type Request struct {
	Kind string `json:"kind"`
	// World is the effective world.Options. Every shard builds (or
	// reuses) its world from exactly these options.
	World world.Options `json:"world"`
	// Products restricts the identify keyword fan-out (identify only;
	// empty = all Table 2 products).
	Products []string `json:"products,omitempty"`
	// Countries bounds the identify ccTLD fan-out (identify only).
	Countries []string `json:"countries,omitempty"`
	// ISPs restricts the target set (characterize/discover/mechanisms).
	ISPs []string `json:"isps,omitempty"`
	// Rounds and Budget cap each discovery crawl (discover only).
	Rounds int `json:"rounds,omitempty"`
	Budget int `json:"budget,omitempty"`
}

// ShardSpec is one unit of work: the request plus the slice of its
// probe space the shard covers. It is also the cluster wire lease.
type ShardSpec struct {
	Request
	// Pieces names this shard's slice of the probe space: product names
	// for identify, ISP names otherwise.
	Pieces []string `json:"pieces"`
}

// Fragment is one shard's contribution to the final document, opaque
// outside its kind. It holds the kind's own part value when the shard
// ran in this process, and that value's JSON only when it came off the
// cluster wire, until Decode or the merge decodes it (partOf is the one
// decode site).
type Fragment struct {
	part any
}

// MarshalJSON writes the part.
func (f Fragment) MarshalJSON() ([]byte, error) { return json.Marshal(f.part) }

// UnmarshalJSON keeps a copy of the part's JSON (the decoder reuses its
// buffer) for Decode or Merge to decode into the kind's part type.
func (f *Fragment) UnmarshalJSON(b []byte) error {
	f.part = json.RawMessage(bytes.Clone(b))
	return nil
}

// Decode checks a fragment a coordinator received against kind's part
// type, and turns its wire JSON into that part in place, so its job's
// merge does not decode it again. A fragment whose shard ran in this
// process already holds the part. The decode is Merge's own: the JSON
// must have the part's shape, so a field the part lacks (another kind's
// fragment, or another build's) is an error that names it.
func (f *Fragment) Decode(kind string) error {
	p, err := lookup(kind)
	if err != nil {
		return err
	}
	if f == nil {
		return fmt.Errorf("plan: %s: no fragment", kind)
	}
	if err := p.Merge.decode(f); err != nil {
		return fmt.Errorf("plan: decode %s fragment: %w", kind, err)
	}
	return nil
}

// merger is what a kind does with its part type: decode a fragment off
// the wire into it, and merge a slice of it into the kind's document.
// mergeParts builds it.
type merger struct {
	decode func(f *Fragment) error
	merge  func(req Request, frags []*Fragment) (any, bool, error)
}

// mergeParts adapts a merge over a kind's part type P to Plan.Merge.
func mergeParts[P any](merge func(req Request, parts []P) (any, bool, error)) merger {
	return merger{
		decode: func(f *Fragment) error {
			part, err := partOf[P](f)
			if err == nil {
				f.part = part
			}
			return err
		},
		merge: func(req Request, frags []*Fragment) (any, bool, error) {
			parts := make([]P, len(frags))
			for i, f := range frags {
				var err error
				if parts[i], err = partOf[P](f); err != nil {
					return nil, false, fmt.Errorf("plan: merge %s: fragment %d: %w", req.Kind, i, err)
				}
			}
			return merge(req, parts)
		},
	}
}

// partOf returns f's part as a P. f holds a P when its shard ran in this
// process, and P's JSON when it came off the cluster wire; that JSON must
// have P's shape, so a field P lacks fails instead of being dropped.
func partOf[P any](f *Fragment) (P, error) {
	var part P
	switch v := f.part.(type) {
	case P:
		return v, nil
	case json.RawMessage:
		dec := json.NewDecoder(bytes.NewReader(v))
		dec.DisallowUnknownFields()
		err := dec.Decode(&part)
		return part, err
	default:
		return part, fmt.Errorf("holds %T, want %T", f.part, part)
	}
}

// Normalize canonicalizes a request through its kind's descriptor.
func Normalize(req *Request) error {
	p, err := lookup(req.Kind)
	if err != nil {
		return err
	}
	return p.Normalize(req)
}

// Split cuts a request into one shard per probe-space piece, in
// single-process execution order (the merge order).
func Split(req Request) ([]ShardSpec, error) {
	p, err := lookup(req.Kind)
	if err != nil {
		return nil, err
	}
	pieces := p.Pieces(req)
	specs := make([]ShardSpec, 0, len(pieces))
	for _, piece := range pieces {
		specs = append(specs, ShardSpec{Request: req, Pieces: []string{piece}})
	}
	return specs, nil
}

// Merge reassembles a request's fragments — one per shard, in shard
// order — into the final document, reporting whether it is degraded.
func Merge(req Request, frags []*Fragment) (any, bool, error) {
	p, err := lookup(req.Kind)
	if err != nil {
		return nil, false, err
	}
	for i, f := range frags {
		if f == nil {
			return nil, false, fmt.Errorf("plan: merge %s: missing fragment %d", req.Kind, i)
		}
	}
	return p.Merge.merge(req, frags)
}

// Execute runs a request on a caller-owned world as a single shard
// holding every piece and merges it. The caller positions the world's
// clock; the shard scans and validates afresh. The monitor and fmhist
// run their plans through here.
func Execute(ctx context.Context, w *world.World, req Request) (any, bool, error) {
	p, err := lookup(req.Kind)
	if err != nil {
		return nil, false, err
	}
	return whole(ctx, p, req, func(spec ShardSpec) (*Fragment, error) {
		return p.Exec(ctx, w, nil, spec)
	})
}

// whole runs req as one shard holding every piece through run, then
// merges. A request covering no piece merges the empty fragment set:
// the Exec functions read an empty piece list as "everything".
func whole(ctx context.Context, p *Plan, req Request, run func(ShardSpec) (*Fragment, error)) (any, bool, error) {
	var frags []*Fragment
	if pieces := p.Pieces(req); len(pieces) > 0 {
		frag, err := run(ShardSpec{Request: req, Pieces: pieces})
		if err != nil {
			return nil, false, err
		}
		frags = append(frags, frag)
	}
	return Merge(req, frags)
}

// sortDedupe trims, deduplicates and sorts a name list (nil when empty).
func sortDedupe(in []string) []string {
	seen := make(map[string]bool, len(in))
	var out []string
	for _, s := range in {
		s = strings.TrimSpace(s)
		if s == "" || seen[s] {
			continue
		}
		seen[s] = true
		out = append(out, s)
	}
	sort.Strings(out)
	return out
}

// checkNames canonicalizes a name list and rejects names outside known
// with "unknown <what> %q".
func checkNames(names *[]string, known []string, what string) error {
	*names = sortDedupe(*names)
	ok := make(map[string]bool, len(known))
	for _, k := range known {
		ok[k] = true
	}
	for _, n := range *names {
		if !ok[n] {
			return fmt.Errorf("unknown %s %q", what, n)
		}
	}
	return nil
}

// filterISPs keeps all in order, restricted to want when non-empty, so
// shard order matches single-process target order.
func filterISPs(all, want []string) []string {
	if len(want) == 0 {
		return all
	}
	wanted := make(map[string]bool, len(want))
	for _, isp := range want {
		wanted[isp] = true
	}
	out := make([]string, 0, len(want))
	for _, isp := range all {
		if wanted[isp] {
			out = append(out, isp)
		}
	}
	return out
}

// characterizationISPs lists the §5 target ISPs in target order.
func characterizationISPs() []string {
	var isps []string
	for _, t := range world.CharacterizationTargets() {
		isps = append(isps, t.ISP)
	}
	return isps
}
