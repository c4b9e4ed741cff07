// Package store is the longitudinal persistence layer: an append-only,
// content-addressed snapshot log for identification reports, Table 4
// characterization matrices, and any other JSON document the pipelines
// produce over time.
//
// Layout on disk is a sequence of JSONL segment files (seg-000001.jsonl,
// seg-000002.jsonl, ...) plus an index file (index.json) covering the
// sealed (non-tail) segments. Each line is one record: a small envelope
// (sequence number, content ID, kind, virtual timestamp, world-config
// hash, note) around either the document body or a reference to an
// earlier record with the same content. The content ID is a truncated
// SHA-256 over (kind, config hash, canonical body), so identical world
// states hash to identical IDs no matter who produced them.
//
// Durability model:
//
//   - Append writes one line and fsyncs before returning (disable with
//     WithoutSync for bulk loads and benchmarks).
//   - Sealed segments are immutable; only the tail segment is appended to.
//   - Open replays the log: sealed segments come from the index when its
//     recorded sizes match the files (full rescan otherwise), and the tail
//     segment is always re-scanned. A corrupt tail — a torn line from a
//     crash mid-append, or a body whose recomputed content ID disagrees
//     with its envelope — is truncated at the first bad byte and the store
//     opens cleanly; corruption in a sealed segment is a hard error.
//   - Append with content identical to the latest snapshot of the same
//     (kind, config) pair is deduplicated: no record is written and the
//     existing Meta is returned with Deduped set.
//   - Compact rewrites the whole log into a single fresh segment in which
//     each distinct content body is stored once and repeats become
//     references. The new segment is fsynced before the old ones are
//     removed, and Open tolerates the overlap a crash between those two
//     steps leaves behind (duplicate sequence numbers are skipped).
//
// Open with an empty directory path returns a memory-backed store with
// the same API and no persistence — the fmserve default when no -store
// directory is configured.
package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// segPattern names segment files; segments are numbered from 1 and read
// in numeric order.
const (
	segPrefix = "seg-"
	segSuffix = ".jsonl"
	indexFile = "index.json"
)

// ErrNotFound reports a Get selector matching no snapshot.
var ErrNotFound = errors.New("store: snapshot not found")

// ErrAmbiguous reports a Get ID prefix matching more than one content ID.
var ErrAmbiguous = errors.New("store: ambiguous snapshot id prefix")

// ErrCorrupt reports corruption outside the truncatable tail.
var ErrCorrupt = errors.New("store: corrupt segment")

// Options tunes a Store.
type Options struct {
	// MaxSegmentBytes is the rotation threshold (default 4 MiB).
	MaxSegmentBytes int64
	// DisableSync skips the per-append fsync (bulk loads, benchmarks).
	DisableSync bool
}

// Option mutates Options.
type Option func(*Options)

// WithoutSync disables the per-append fsync.
func WithoutSync() Option { return func(o *Options) { o.DisableSync = true } }

// Snapshot is one world observation to persist.
type Snapshot struct {
	// Kind classifies the body ("identify", "table4", ...). The store is
	// kind-agnostic; the longitudinal diff engine interprets kinds.
	Kind string
	// At is the virtual timestamp of the observation (the simulated
	// clock's reading, not wall time).
	At time.Time
	// Config is the world-configuration hash the observation ran under
	// (see ConfigHash).
	Config string
	// Note is free-form caller annotation.
	Note string
	// Body is the JSON document. It is canonicalized (compacted) before
	// hashing and storage.
	Body json.RawMessage
}

// Meta describes one stored snapshot.
type Meta struct {
	// Seq is the monotonic record number (1-based).
	Seq uint64 `json:"seq"`
	// ID is the content address: hex SHA-256 over (kind, config, body),
	// truncated to 16 characters.
	ID string `json:"id"`
	// Kind, At, Config and Note echo the Snapshot.
	Kind   string    `json:"kind"`
	At     time.Time `json:"at"`
	Config string    `json:"config,omitempty"`
	Note   string    `json:"note,omitempty"`
	// Bytes is the canonical body size.
	Bytes int `json:"bytes"`
	// Deduped reports that an Append was collapsed onto this existing
	// record because its content matched the latest snapshot of the same
	// (kind, config). Only ever set on the Meta returned by Append.
	Deduped bool `json:"deduped,omitempty"`
}

// Query filters List.
type Query struct {
	// Kind restricts to one snapshot kind ("" = all).
	Kind string
}

// line is the JSONL on-disk record envelope. Exactly one of Body and Ref
// is set: Ref points at the content ID of an earlier record whose line
// carries the body.
type line struct {
	Seq    uint64          `json:"seq"`
	ID     string          `json:"id"`
	Kind   string          `json:"kind"`
	At     time.Time       `json:"at"`
	Config string          `json:"config,omitempty"`
	Note   string          `json:"note,omitempty"`
	Body   json.RawMessage `json:"body,omitempty"`
	Ref    string          `json:"ref,omitempty"`
}

// rec is the in-memory index entry for one record.
type rec struct {
	meta Meta
	seg  int
	off  int64
	llen int64 // full line length including trailing newline
	ref  string
	body []byte // memory mode only
}

// indexDoc is the persisted index: metadata and offsets for every record
// in the sealed segments, with recorded file sizes for validation. It is
// a rebuildable cache — any disagreement with the segment files triggers
// a full rescan.
type indexDoc struct {
	Segments []indexSegment `json:"segments"`
}

type indexSegment struct {
	Seg     int        `json:"seg"`
	Size    int64      `json:"size"`
	Records []indexRec `json:"records"`
}

type indexRec struct {
	Meta Meta   `json:"meta"`
	Off  int64  `json:"off"`
	Len  int64  `json:"len"`
	Ref  string `json:"ref,omitempty"`
}

// Store is the snapshot log. All methods are safe for concurrent use.
type Store struct {
	mu   sync.Mutex
	dir  string // "" = memory mode
	opts Options

	recs        []rec
	bySeq       map[uint64]int
	byID        map[string][]int
	latestByKey map[string]int // kind+"\x00"+config -> newest rec index

	segIdx   int
	tail     *os.File
	tailSize int64

	recovered int64 // bytes truncated from the tail at Open
	closed    bool
}

// Open opens (or creates) the store rooted at dir. An empty dir returns
// a memory-backed store with no persistence.
func Open(dir string, opts ...Option) (*Store, error) {
	o := Options{MaxSegmentBytes: 4 << 20}
	for _, fn := range opts {
		fn(&o)
	}
	s := &Store{
		dir:         dir,
		opts:        o,
		bySeq:       make(map[uint64]int),
		byID:        make(map[string][]int),
		latestByKey: make(map[string]int),
	}
	if dir == "" {
		return s, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.load(); err != nil {
		return nil, err
	}
	return s, nil
}

// RecoveredBytes reports how many corrupt tail bytes Open truncated
// (0 when the log was clean).
func (s *Store) RecoveredBytes() int64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.recovered
}

// Count returns the number of stored snapshots.
func (s *Store) Count() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.recs)
}

// Close flushes and closes the tail segment. The store is unusable
// afterwards.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	s.closed = true
	if s.tail != nil {
		if err := s.tail.Sync(); err != nil {
			s.tail.Close()
			return fmt.Errorf("store: close: %w", err)
		}
		return s.tail.Close()
	}
	return nil
}

// ---- hashing ----

// ContentID computes the content address of a snapshot body: hex SHA-256
// over (kind, config, canonical body), truncated to 16 characters. The
// body must already be canonical (compact) JSON.
func ContentID(kind, config string, body []byte) string {
	h := sha256.New()
	h.Write([]byte(kind))
	h.Write([]byte{0})
	h.Write([]byte(config))
	h.Write([]byte{0})
	h.Write(body)
	return hex.EncodeToString(h.Sum(nil))[:16]
}

// ConfigHash hashes an arbitrary configuration value (canonically
// JSON-marshaled) to a 16-character hex string. The server's result-cache
// keys and the store's snapshot records use the same hash, so a cached
// body and a persisted snapshot produced under the same world options
// carry the same config fingerprint.
func ConfigHash(v any) string {
	b, err := json.Marshal(v)
	if err != nil {
		// Config structs marshal by construction; collapse the degenerate
		// case onto a fixed sentinel rather than failing the caller.
		b = []byte("unmarshalable")
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])[:16]
}

// canonicalBody compacts body (stripping insignificant whitespace) so
// hashing and storage are independent of the producer's encoder.
func canonicalBody(body json.RawMessage) ([]byte, error) {
	var buf bytes.Buffer
	if err := json.Compact(&buf, body); err != nil {
		return nil, fmt.Errorf("store: invalid snapshot body: %w", err)
	}
	return buf.Bytes(), nil
}

// ---- append ----

// Append persists one snapshot and returns its Meta. If the snapshot's
// content matches the latest stored snapshot of the same (kind, config),
// nothing is written and the existing Meta is returned with Deduped set.
func (s *Store) Append(snap Snapshot) (Meta, error) {
	if snap.Kind == "" {
		return Meta{}, errors.New("store: snapshot kind required")
	}
	body, err := canonicalBody(snap.Body)
	if err != nil {
		return Meta{}, err
	}
	id := ContentID(snap.Kind, snap.Config, body)

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return Meta{}, errors.New("store: closed")
	}
	if i, ok := s.latestByKey[snap.Kind+"\x00"+snap.Config]; ok && s.recs[i].meta.ID == id {
		m := s.recs[i].meta
		m.Deduped = true
		return m, nil
	}

	var seq uint64 = 1
	if n := len(s.recs); n > 0 {
		seq = s.recs[n-1].meta.Seq + 1
	}
	meta := Meta{
		Seq:    seq,
		ID:     id,
		Kind:   snap.Kind,
		At:     snap.At.UTC(),
		Config: snap.Config,
		Note:   snap.Note,
		Bytes:  len(body),
	}
	r := rec{meta: meta}
	if s.dir == "" {
		r.body = body
		s.addRecLocked(r)
		return meta, nil
	}

	ln, err := marshalLine(meta, body, "")
	if err != nil {
		return Meta{}, err
	}
	if err := s.ensureTailLocked(int64(len(ln))); err != nil {
		return Meta{}, err
	}
	off := s.tailSize
	if _, err := s.tail.Write(ln); err != nil {
		return Meta{}, fmt.Errorf("store: append: %w", err)
	}
	if !s.opts.DisableSync {
		if err := s.tail.Sync(); err != nil {
			return Meta{}, fmt.Errorf("store: fsync: %w", err)
		}
	}
	s.tailSize += int64(len(ln))
	r.seg, r.off, r.llen = s.segIdx, off, int64(len(ln))
	s.addRecLocked(r)
	return meta, nil
}

func marshalLine(meta Meta, body []byte, ref string) ([]byte, error) {
	l := line{
		Seq:    meta.Seq,
		ID:     meta.ID,
		Kind:   meta.Kind,
		At:     meta.At,
		Config: meta.Config,
		Note:   meta.Note,
		Body:   body,
		Ref:    ref,
	}
	b, err := json.Marshal(l)
	if err != nil {
		return nil, fmt.Errorf("store: marshal record: %w", err)
	}
	return append(b, '\n'), nil
}

func (s *Store) addRecLocked(r rec) {
	i := len(s.recs)
	s.recs = append(s.recs, r)
	s.bySeq[r.meta.Seq] = i
	s.byID[r.meta.ID] = append(s.byID[r.meta.ID], i)
	s.latestByKey[r.meta.Kind+"\x00"+r.meta.Config] = i
}

// ensureTailLocked opens the tail segment if needed and rotates when the
// incoming line would push it past the rotation threshold.
func (s *Store) ensureTailLocked(incoming int64) error {
	if s.tail == nil {
		if s.segIdx == 0 {
			s.segIdx = 1
		}
		return s.openTailLocked()
	}
	if s.tailSize > 0 && s.tailSize+incoming > s.opts.MaxSegmentBytes {
		if err := s.tail.Sync(); err != nil {
			return fmt.Errorf("store: seal segment: %w", err)
		}
		if err := s.tail.Close(); err != nil {
			return fmt.Errorf("store: seal segment: %w", err)
		}
		s.tail = nil
		s.segIdx++
		if err := s.openTailLocked(); err != nil {
			return err
		}
		// The previous tail is sealed: refresh the on-disk index so the
		// next Open can skip rescanning it.
		s.writeIndexLocked()
	}
	return nil
}

func (s *Store) openTailLocked() error {
	f, err := os.OpenFile(s.segPath(s.segIdx), os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: open segment: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return fmt.Errorf("store: stat segment: %w", err)
	}
	s.tail = f
	s.tailSize = st.Size()
	s.syncDir()
	return nil
}

func (s *Store) segPath(idx int) string {
	return filepath.Join(s.dir, fmt.Sprintf("%s%06d%s", segPrefix, idx, segSuffix))
}

// syncDir fsyncs the store directory (best effort; not all platforms
// support directory fsync).
func (s *Store) syncDir() {
	if d, err := os.Open(s.dir); err == nil {
		d.Sync() //nolint:errcheck
		d.Close()
	}
}

// ---- open / recovery ----

// load replays the log into memory: sealed segments from the index when
// it validates, the tail by scanning (with corrupt-tail truncation).
func (s *Store) load() error {
	segs, err := s.segmentIndices()
	if err != nil {
		return err
	}
	if len(segs) == 0 {
		s.segIdx = 1
		return s.openTailLocked()
	}
	tailSeg := segs[len(segs)-1]

	var loaded []rec
	sealed := segs[:len(segs)-1]
	fromIndex := s.loadSealedFromIndex(sealed)
	if fromIndex != nil {
		loaded = fromIndex
	} else {
		for _, idx := range sealed {
			recs, _, err := s.scanSegment(idx, false)
			if err != nil {
				return err
			}
			loaded = append(loaded, recs...)
		}
	}

	tailRecs, truncated, err := s.scanSegment(tailSeg, true)
	if err != nil {
		return err
	}
	loaded = append(loaded, tailRecs...)
	s.recovered = truncated

	// Tolerate duplicate sequence numbers (an interrupted Compact leaves
	// the combined segment alongside the originals): first occurrence
	// wins — the earlier copy is the one holding bodies.
	for _, r := range loaded {
		if _, dup := s.bySeq[r.meta.Seq]; dup {
			continue
		}
		s.addRecLocked(r)
	}
	// Refs must resolve to a body-bearing record of the same content.
	for _, r := range s.recs {
		if r.ref == "" {
			continue
		}
		if _, err := s.bodyRecLocked(r.meta.ID); err != nil {
			return fmt.Errorf("%w: record %d references missing body %s", ErrCorrupt, r.meta.Seq, r.meta.ID)
		}
	}
	s.segIdx = tailSeg
	if err := s.openTailLocked(); err != nil {
		return err
	}
	if fromIndex == nil {
		s.writeIndexLocked()
	}
	return nil
}

// segmentIndices lists segment numbers present on disk, ascending.
func (s *Store) segmentIndices() ([]int, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	var segs []int
	for _, e := range entries {
		name := e.Name()
		if !strings.HasPrefix(name, segPrefix) || !strings.HasSuffix(name, segSuffix) {
			continue
		}
		n, err := strconv.Atoi(strings.TrimSuffix(strings.TrimPrefix(name, segPrefix), segSuffix))
		if err != nil || n < 1 {
			continue
		}
		segs = append(segs, n)
	}
	sort.Ints(segs)
	return segs, nil
}

// loadSealedFromIndex returns the sealed segments' records from the index
// file, or nil when the index is absent or disagrees with the files (the
// caller falls back to a full rescan).
func (s *Store) loadSealedFromIndex(sealed []int) []rec {
	if len(sealed) == 0 {
		return nil
	}
	b, err := os.ReadFile(filepath.Join(s.dir, indexFile))
	if err != nil {
		return nil
	}
	var doc indexDoc
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil
	}
	bySeg := make(map[int]indexSegment, len(doc.Segments))
	for _, seg := range doc.Segments {
		bySeg[seg.Seg] = seg
	}
	var out []rec
	for _, idx := range sealed {
		seg, ok := bySeg[idx]
		if !ok {
			return nil
		}
		st, err := os.Stat(s.segPath(idx))
		if err != nil || st.Size() != seg.Size {
			return nil
		}
		for _, ir := range seg.Records {
			out = append(out, rec{meta: ir.Meta, seg: idx, off: ir.Off, llen: ir.Len, ref: ir.Ref})
		}
	}
	return out
}

// writeIndexLocked persists the sealed segments' index (atomically, via
// temp file + rename). Best effort: the index is a rebuildable cache, so
// failures are swallowed and the next Open rescans.
func (s *Store) writeIndexLocked() {
	var doc indexDoc
	bySeg := make(map[int]*indexSegment)
	for _, r := range s.recs {
		if r.seg == s.segIdx { // tail is always rescanned; don't index it
			continue
		}
		seg, ok := bySeg[r.seg]
		if !ok {
			st, err := os.Stat(s.segPath(r.seg))
			if err != nil {
				return
			}
			doc.Segments = append(doc.Segments, indexSegment{Seg: r.seg, Size: st.Size()})
			seg = &doc.Segments[len(doc.Segments)-1]
			bySeg[r.seg] = seg
		}
		seg.Records = append(seg.Records, indexRec{Meta: r.meta, Off: r.off, Len: r.llen, Ref: r.ref})
	}
	// Map iteration above never reorders: records were walked in seq
	// order, so each segment's slice is already offset-ordered.
	b, err := json.Marshal(doc)
	if err != nil {
		return
	}
	tmp := filepath.Join(s.dir, indexFile+".tmp")
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return
	}
	os.Rename(tmp, filepath.Join(s.dir, indexFile)) //nolint:errcheck
}

// scanSegment replays one segment file. For the tail segment (tail=true)
// a corrupt record truncates the file at the first bad byte and the scan
// returns what preceded it; for sealed segments corruption is fatal.
func (s *Store) scanSegment(idx int, tail bool) (recs []rec, truncated int64, err error) {
	path := s.segPath(idx)
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, fmt.Errorf("store: %w", err)
	}
	defer f.Close()

	var off int64
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 64*1024), 64<<20)
	corruptAt := int64(-1)
	for sc.Scan() {
		raw := sc.Bytes()
		llen := int64(len(raw)) + 1
		var l line
		bad := json.Unmarshal(raw, &l) != nil || l.Seq == 0 || l.ID == "" || l.Kind == "" ||
			(len(l.Body) == 0) == (l.Ref == "")
		var canon []byte
		if !bad && len(l.Body) > 0 {
			// Content addressing doubles as an integrity check: a body
			// that no longer hashes to its envelope's ID is a torn or
			// bit-rotted record.
			var cerr error
			canon, cerr = canonicalBody(l.Body)
			if cerr != nil || ContentID(l.Kind, l.Config, canon) != l.ID {
				bad = true
			}
		}
		if bad {
			corruptAt = off
			break
		}
		meta := Meta{Seq: l.Seq, ID: l.ID, Kind: l.Kind, At: l.At, Config: l.Config, Note: l.Note, Bytes: len(canon)}
		recs = append(recs, rec{meta: meta, seg: idx, off: off, llen: llen, ref: l.Ref})
		off += llen
	}
	if err := sc.Err(); err != nil && corruptAt < 0 {
		// An unterminated or over-long final line is tail corruption too.
		corruptAt = off
	}
	if corruptAt < 0 {
		// The scanner treats a final line without '\n' as complete; detect
		// the torn-tail case by comparing consumed vs actual size.
		st, serr := f.Stat()
		if serr != nil {
			return nil, 0, fmt.Errorf("store: %w", serr)
		}
		if off < st.Size() {
			// Trailing bytes that parsed as a record but lack the
			// terminating newline: treat the final record as torn unless
			// it round-trips exactly. Simplest correct rule: re-verify by
			// size; a clean segment's offsets always sum to its size.
			corruptAt = off
			if len(recs) > 0 {
				last := &recs[len(recs)-1]
				if last.off+last.llen-1 == st.Size() {
					// Final line is complete except for the newline the
					// scanner consumed; accept it and append the newline.
					corruptAt = -1
					if tail {
						af, aerr := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
						if aerr == nil {
							af.WriteString("\n") //nolint:errcheck
							af.Close()
						}
					}
				}
			}
		}
	}
	if corruptAt >= 0 {
		if !tail {
			return nil, 0, fmt.Errorf("%w: %s at offset %d", ErrCorrupt, filepath.Base(path), corruptAt)
		}
		st, serr := f.Stat()
		if serr != nil {
			return nil, 0, fmt.Errorf("store: %w", serr)
		}
		truncated = st.Size() - corruptAt
		if err := os.Truncate(path, corruptAt); err != nil {
			return nil, 0, fmt.Errorf("store: truncate corrupt tail: %w", err)
		}
	}
	return recs, truncated, nil
}

// ---- read path ----

// bodyRecLocked returns the first record carrying the body for id.
func (s *Store) bodyRecLocked(id string) (rec, error) {
	for _, i := range s.byID[id] {
		if s.recs[i].ref == "" {
			return s.recs[i], nil
		}
	}
	return rec{}, fmt.Errorf("%w: no body for id %s", ErrCorrupt, id)
}

// readBodyLocked fetches and verifies a record's body.
func (s *Store) readBodyLocked(r rec) ([]byte, error) {
	br := r
	if r.ref != "" {
		var err error
		if br, err = s.bodyRecLocked(r.meta.ID); err != nil {
			return nil, err
		}
	}
	if s.dir == "" {
		return br.body, nil
	}
	f, err := os.Open(s.segPath(br.seg))
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	defer f.Close()
	buf := make([]byte, br.llen)
	if _, err := f.ReadAt(buf, br.off); err != nil {
		return nil, fmt.Errorf("store: read record: %w", err)
	}
	var l line
	if err := json.Unmarshal(bytes.TrimRight(buf, "\n"), &l); err != nil {
		return nil, fmt.Errorf("%w: record %d: %v", ErrCorrupt, br.meta.Seq, err)
	}
	body, err := canonicalBody(l.Body)
	if err != nil {
		return nil, fmt.Errorf("%w: record %d: %v", ErrCorrupt, br.meta.Seq, err)
	}
	if ContentID(l.Kind, l.Config, body) != br.meta.ID {
		return nil, fmt.Errorf("%w: record %d: content hash mismatch", ErrCorrupt, br.meta.Seq)
	}
	return body, nil
}

// Get resolves a selector to a snapshot and returns its Meta and body.
// Selectors: "latest" (newest snapshot), "latest:<kind>" (newest of a
// kind), a decimal sequence number, or a content-ID prefix (4+ hex
// characters, unique).
func (s *Store) Get(selector string) (Meta, json.RawMessage, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	i, err := s.resolveLocked(selector)
	if err != nil {
		return Meta{}, nil, err
	}
	body, err := s.readBodyLocked(s.recs[i])
	if err != nil {
		return Meta{}, nil, err
	}
	return s.recs[i].meta, body, nil
}

func (s *Store) resolveLocked(selector string) (int, error) {
	selector = strings.TrimSpace(selector)
	if selector == "" {
		return 0, fmt.Errorf("%w: empty selector", ErrNotFound)
	}
	if selector == "latest" {
		if len(s.recs) == 0 {
			return 0, ErrNotFound
		}
		return len(s.recs) - 1, nil
	}
	if kind, ok := strings.CutPrefix(selector, "latest:"); ok {
		for i := len(s.recs) - 1; i >= 0; i-- {
			if s.recs[i].meta.Kind == kind {
				return i, nil
			}
		}
		return 0, fmt.Errorf("%w: no %q snapshot", ErrNotFound, kind)
	}
	if seq, err := strconv.ParseUint(selector, 10, 64); err == nil {
		if i, ok := s.bySeq[seq]; ok {
			return i, nil
		}
		return 0, fmt.Errorf("%w: seq %d", ErrNotFound, seq)
	}
	// Content-ID prefix: newest record of the (unique) matching ID.
	match := -1
	matchID := ""
	for id, idxs := range s.byID {
		if !strings.HasPrefix(id, selector) {
			continue
		}
		if matchID != "" && matchID != id {
			return 0, fmt.Errorf("%w: %q", ErrAmbiguous, selector)
		}
		matchID = id
		if last := idxs[len(idxs)-1]; last > match {
			match = last
		}
	}
	if match < 0 {
		return 0, fmt.Errorf("%w: %q", ErrNotFound, selector)
	}
	return match, nil
}

// List returns snapshot metadata matching q, in append order.
func (s *Store) List(q Query) []Meta {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []Meta
	for _, r := range s.recs {
		m := r.meta
		if q.Kind != "" && m.Kind != q.Kind {
			continue
		}
		out = append(out, m)
	}
	return out
}

// LastSeq returns the newest record's sequence number (0 when empty).
func (s *Store) LastSeq() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(s.recs) == 0 {
		return 0
	}
	return s.recs[len(s.recs)-1].meta.Seq
}

// TailRecord is one record of a TailAfter read: metadata plus the
// canonical body.
type TailRecord struct {
	Meta Meta            `json:"meta"`
	Body json.RawMessage `json:"body"`
}

// TailAfter returns up to limit records with sequence numbers strictly
// greater than after, in sequence order, bodies included — the
// replication-log read path (limit <= 0 means no limit).
func (s *Store) TailAfter(after uint64, limit int) ([]TailRecord, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []TailRecord
	for _, r := range s.recs {
		if r.meta.Seq <= after {
			continue
		}
		if limit > 0 && len(out) >= limit {
			break
		}
		body, err := s.readBodyLocked(r)
		if err != nil {
			return nil, err
		}
		out = append(out, TailRecord{Meta: r.meta, Body: body})
	}
	return out, nil
}

// Latest returns the newest snapshot of (kind, config); config "" means
// any config.
func (s *Store) Latest(kind, config string) (Meta, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if config != "" {
		if i, ok := s.latestByKey[kind+"\x00"+config]; ok {
			return s.recs[i].meta, true
		}
		return Meta{}, false
	}
	for i := len(s.recs) - 1; i >= 0; i-- {
		if s.recs[i].meta.Kind == kind {
			return s.recs[i].meta, true
		}
	}
	return Meta{}, false
}

// ---- compaction ----

// Compact rewrites the log into a single fresh segment in which each
// distinct content body appears once (later repeats become references),
// then removes the old segments. A no-op for memory stores.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.dir == "" || len(s.recs) == 0 {
		return nil
	}
	if s.closed {
		return errors.New("store: closed")
	}

	newIdx := s.segIdx + 1
	path := s.segPath(newIdx)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	seenBody := make(map[string]bool)
	newRecs := make([]rec, 0, len(s.recs))
	var off int64
	for _, r := range s.recs {
		var ln []byte
		nr := rec{meta: r.meta, seg: newIdx}
		if seenBody[r.meta.ID] {
			nr.ref = r.meta.ID
			ln, err = marshalLine(r.meta, nil, r.meta.ID)
		} else {
			var body []byte
			body, err = s.readBodyLocked(r)
			if err == nil {
				// Meta.Bytes can be zero for ref records loaded before
				// their body was read; refresh it from the real body.
				nr.meta.Bytes = len(body)
				ln, err = marshalLine(nr.meta, body, "")
				seenBody[r.meta.ID] = true
			}
		}
		if err != nil {
			f.Close()
			os.Remove(path) //nolint:errcheck
			return fmt.Errorf("store: compact: %w", err)
		}
		if _, err := f.Write(ln); err != nil {
			f.Close()
			os.Remove(path) //nolint:errcheck
			return fmt.Errorf("store: compact: %w", err)
		}
		nr.off, nr.llen = off, int64(len(ln))
		off += int64(len(ln))
		newRecs = append(newRecs, nr)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	s.syncDir()

	// The combined segment is durable; old segments are now redundant.
	// A crash before the removals finish leaves duplicates that Open
	// skips by sequence number.
	oldTail := s.tail
	for seg := 1; seg <= s.segIdx; seg++ {
		os.Remove(s.segPath(seg)) //nolint:errcheck
	}
	if oldTail != nil {
		oldTail.Close()
	}
	s.tail = nil
	s.segIdx = newIdx
	s.recs = newRecs
	s.bySeq = make(map[uint64]int)
	s.byID = make(map[string][]int)
	s.latestByKey = make(map[string]int)
	recs := s.recs
	s.recs = nil
	for _, r := range recs {
		s.addRecLocked(r)
	}
	if err := s.openTailLocked(); err != nil {
		return err
	}
	s.tailSize = off
	s.writeIndexLocked()
	return nil
}
