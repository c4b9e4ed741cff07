package store

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"filtermap/internal/simclock"
)

func testSnap(kind string, at time.Time, payload string) Snapshot {
	return Snapshot{
		Kind:   kind,
		At:     at,
		Config: "cfg0000deadbeef0",
		Body:   json.RawMessage(fmt.Sprintf(`{"payload": %q}`, payload)),
	}
}

func TestAppendGetListRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	at := simclock.Epoch
	var metas []Meta
	for i := 0; i < 5; i++ {
		m, err := s.Append(testSnap("identify", at.Add(time.Duration(i)*24*time.Hour), fmt.Sprintf("v%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		if m.Deduped {
			t.Fatalf("snapshot %d unexpectedly deduped", i)
		}
		metas = append(metas, m)
	}
	if got := s.Count(); got != 5 {
		t.Fatalf("Count = %d, want 5", got)
	}

	// Get by seq, by full ID, by ID prefix, and latest.
	for _, sel := range []string{"3", metas[2].ID, metas[2].ID[:6]} {
		m, body, err := s.Get(sel)
		if err != nil {
			t.Fatalf("Get(%q): %v", sel, err)
		}
		if m.Seq != 3 {
			t.Fatalf("Get(%q).Seq = %d, want 3", sel, m.Seq)
		}
		if want := `{"payload":"v2"}`; string(body) != want {
			t.Fatalf("Get(%q) body = %s, want %s", sel, body, want)
		}
	}
	if m, _, err := s.Get("latest"); err != nil || m.Seq != 5 {
		t.Fatalf("Get(latest) = %+v, %v; want seq 5", m, err)
	}
	if m, _, err := s.Get("latest:identify"); err != nil || m.Seq != 5 {
		t.Fatalf("Get(latest:identify) = %+v, %v", m, err)
	}
	if _, _, err := s.Get("latest:table4"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(latest:table4) err = %v, want ErrNotFound", err)
	}
	if _, _, err := s.Get("99"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get(99) err = %v, want ErrNotFound", err)
	}

	// List filters.
	if got := len(s.List(Query{Kind: "identify"})); got != 5 {
		t.Fatalf("List(identify) = %d entries, want 5", got)
	}
	if got := len(s.List(Query{Kind: "table4"})); got != 0 {
		t.Fatalf("List(table4) = %d entries, want 0", got)
	}
	if all := s.List(Query{}); len(all) != 5 || all[0].Seq != 1 || all[4].Seq != 5 {
		t.Fatalf("List(all) = %+v, want seqs 1-5 in append order", all)
	}
}

func TestAppendDedupesConsecutiveIdenticalSnapshots(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	at := simclock.Epoch
	m1, err := s.Append(testSnap("identify", at, "same"))
	if err != nil {
		t.Fatal(err)
	}
	// Same content later: deduped onto the first record even though At
	// differs — content addressing ignores the observation time.
	m2, err := s.Append(testSnap("identify", at.Add(time.Hour), "same"))
	if err != nil {
		t.Fatal(err)
	}
	if !m2.Deduped || m2.Seq != m1.Seq || m2.ID != m1.ID {
		t.Fatalf("second append = %+v, want dedupe onto %+v", m2, m1)
	}
	// Different kind with same body is NOT a dupe.
	if m, err := s.Append(testSnap("table4", at, "same")); err != nil || m.Deduped {
		t.Fatalf("cross-kind append = %+v, %v; want fresh record", m, err)
	}
	// Content changes, then reverts: the revert is a fresh record because
	// only the *latest* snapshot of the pair is compared.
	if m, err := s.Append(testSnap("identify", at, "changed")); err != nil || m.Deduped {
		t.Fatalf("changed append = %+v, %v", m, err)
	}
	if m, err := s.Append(testSnap("identify", at, "same")); err != nil || m.Deduped {
		t.Fatalf("reverted append = %+v, %v; want fresh record", m, err)
	}
	if got := s.Count(); got != 4 {
		t.Fatalf("Count = %d, want 4", got)
	}
}

func TestReopenPersists(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := map[uint64]string{}
	for i := 0; i < 3; i++ {
		m, err := s.Append(testSnap("identify", simclock.Epoch.Add(time.Duration(i)*time.Hour), fmt.Sprintf("p%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		want[m.Seq] = fmt.Sprintf(`{"payload":"p%d"}`, i)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.RecoveredBytes() != 0 {
		t.Fatalf("clean log reported %d recovered bytes", s2.RecoveredBytes())
	}
	if got := s2.Count(); got != len(want) {
		t.Fatalf("Count after reopen = %d, want %d", got, len(want))
	}
	for seq, body := range want {
		_, got, err := s2.Get(fmt.Sprint(seq))
		if err != nil {
			t.Fatalf("Get(%d) after reopen: %v", seq, err)
		}
		if string(got) != body {
			t.Fatalf("Get(%d) = %s, want %s", seq, got, body)
		}
	}
}

// TestTruncatedTailRecovers simulates a crash mid-append: the final JSONL
// line is cut short. Open must truncate the torn line, keep everything
// before it, and accept new appends that then round-trip.
func TestTruncatedTailRecovers(t *testing.T) {
	for _, cut := range []struct {
		name string
		keep int // records surviving recovery
		mut  func(path string, t *testing.T)
	}{
		{"mid-line truncation", 2, func(path string, t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Chop the last line roughly in half (torn write).
			lines := strings.SplitAfter(strings.TrimSuffix(string(b), "\n"), "\n")
			last := lines[len(lines)-1]
			keep := strings.Join(lines[:len(lines)-1], "") + last[:len(last)/2]
			if err := os.WriteFile(path, []byte(keep), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
		{"garbage tail bytes", 3, func(path string, t *testing.T) {
			f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.WriteString("{\"seq\":9,\"id\":\"nothex\"\x00\x00garbage"); err != nil {
				t.Fatal(err)
			}
			f.Close()
		}},
		{"tampered body", 2, func(path string, t *testing.T) {
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			// Flip the payload of the final record; the content hash in
			// its envelope no longer matches, so Open must drop it.
			s := string(b)
			i := strings.LastIndex(s, "p2")
			if i < 0 {
				t.Fatal("payload marker not found")
			}
			if err := os.WriteFile(path, []byte(s[:i]+"XX"+s[i+2:]), 0o644); err != nil {
				t.Fatal(err)
			}
		}},
	} {
		t.Run(cut.name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := s.Append(testSnap("identify", simclock.Epoch, fmt.Sprintf("p%d", i))); err != nil {
					t.Fatal(err)
				}
			}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			cut.mut(filepath.Join(dir, "seg-000001.jsonl"), t)

			s2, err := Open(dir)
			if err != nil {
				t.Fatalf("reopen after tail corruption: %v", err)
			}
			defer s2.Close()
			if s2.RecoveredBytes() == 0 {
				t.Fatal("expected RecoveredBytes > 0 after tail corruption")
			}
			if got := s2.Count(); got != cut.keep {
				t.Fatalf("Count after recovery = %d, want %d (torn record dropped)", got, cut.keep)
			}
			// Surviving records still readable.
			if _, body, err := s2.Get("2"); err != nil || string(body) != `{"payload":"p1"}` {
				t.Fatalf("Get(2) after recovery = %s, %v", body, err)
			}
			// Append after recovery continues the sequence and
			// round-trips across another reopen.
			m, err := s2.Append(testSnap("identify", simclock.Epoch.Add(time.Hour), "post-crash"))
			if err != nil {
				t.Fatalf("Append after recovery: %v", err)
			}
			if want := uint64(cut.keep) + 1; m.Seq != want {
				t.Fatalf("post-recovery seq = %d, want %d", m.Seq, want)
			}
			if err := s2.Close(); err != nil {
				t.Fatal(err)
			}
			s3, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			defer s3.Close()
			if s3.RecoveredBytes() != 0 {
				t.Fatalf("second reopen recovered %d bytes, want clean", s3.RecoveredBytes())
			}
			if _, body, err := s3.Get(fmt.Sprint(cut.keep + 1)); err != nil || string(body) != `{"payload":"post-crash"}` {
				t.Fatalf("post-recovery round-trip = %s, %v", body, err)
			}
		})
	}
}

func TestCorruptSealedSegmentIsFatal(t *testing.T) {
	dir := t.TempDir()
	// Tiny rotation threshold so the first appends seal a segment.
	s, err := Open(dir, WithMaxSegmentBytes(200))
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Append(testSnap("identify", simclock.Epoch, fmt.Sprintf("pad-%04d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation, got segments %v", segs)
	}
	// Remove the index so Open must rescan, then corrupt the first
	// (sealed) segment.
	os.Remove(filepath.Join(dir, "index.json"))
	if err := os.WriteFile(segs[0], []byte("not json\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(dir); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open with corrupt sealed segment: err = %v, want ErrCorrupt", err)
	}
}

func TestRotationAndCompact(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir, WithMaxSegmentBytes(300))
	if err != nil {
		t.Fatal(err)
	}
	// Appends with some repeated content (non-consecutive, so not
	// deduped at append time) — Compact should collapse the bodies.
	payloads := []string{"a", "b", "a", "c", "b", "a", "d", "e"}
	for i, p := range payloads {
		if _, err := s.Append(testSnap("identify", simclock.Epoch.Add(time.Duration(i)*time.Hour), p)); err != nil {
			t.Fatal(err)
		}
	}
	segs, _ := filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) < 2 {
		t.Fatalf("expected rotation before compact, got %v", segs)
	}
	if err := s.Compact(); err != nil {
		t.Fatal(err)
	}
	segs, _ = filepath.Glob(filepath.Join(dir, "seg-*.jsonl"))
	if len(segs) != 1 {
		t.Fatalf("expected single segment after compact, got %v", segs)
	}
	check := func(st *Store) {
		t.Helper()
		if got := st.Count(); got != len(payloads) {
			t.Fatalf("Count = %d, want %d", got, len(payloads))
		}
		for i, p := range payloads {
			_, body, err := st.Get(fmt.Sprint(i + 1))
			if err != nil {
				t.Fatalf("Get(%d): %v", i+1, err)
			}
			if want := fmt.Sprintf(`{"payload":%q}`, p); string(body) != want {
				t.Fatalf("Get(%d) = %s, want %s", i+1, body, want)
			}
		}
	}
	check(s)
	// Appends continue after compact, and everything survives a reopen.
	if _, err := s.Append(testSnap("identify", simclock.Epoch.Add(100*time.Hour), "post-compact")); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatalf("reopen after compact: %v", err)
	}
	defer s2.Close()
	if got := s2.Count(); got != len(payloads)+1 {
		t.Fatalf("Count after reopen = %d, want %d", got, len(payloads)+1)
	}
	if _, body, err := s2.Get("latest"); err != nil || string(body) != `{"payload":"post-compact"}` {
		t.Fatalf("Get(latest) after reopen = %s, %v", body, err)
	}
}

// TestConcurrentAppendList exercises the store under the race detector:
// writers appending distinct snapshots while readers List and Get.
func TestConcurrentAppendList(t *testing.T) {
	s, err := Open(t.TempDir(), WithoutSync())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	const writers, perWriter = 4, 25
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				snap := testSnap("identify", simclock.Epoch.Add(time.Duration(i)*time.Minute), fmt.Sprintf("w%d-%d", w, i))
				if _, err := s.Append(snap); err != nil {
					t.Errorf("Append: %v", err)
					return
				}
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		select {
		case <-done:
			if got := s.Count(); got != writers*perWriter {
				t.Fatalf("Count = %d, want %d", got, writers*perWriter)
			}
			if got := len(s.List(Query{Kind: "identify"})); got != writers*perWriter {
				t.Fatalf("List = %d, want %d", got, writers*perWriter)
			}
			return
		default:
			metas := s.List(Query{})
			if len(metas) > 0 {
				if _, _, err := s.Get(fmt.Sprint(metas[len(metas)-1].Seq)); err != nil {
					t.Fatalf("Get during concurrent appends: %v", err)
				}
			}
		}
	}
}

func TestMemoryStore(t *testing.T) {
	s, err := Open("")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	m, err := s.Append(testSnap("identify", simclock.Epoch, "mem"))
	if err != nil {
		t.Fatal(err)
	}
	if _, body, err := s.Get(m.ID); err != nil || string(body) != `{"payload":"mem"}` {
		t.Fatalf("memory Get = %s, %v", body, err)
	}
	if err := s.Compact(); err != nil {
		t.Fatalf("memory Compact: %v", err)
	}
}

func TestConfigHashStable(t *testing.T) {
	type cfg struct {
		A int
		B string
	}
	h1 := ConfigHash(cfg{1, "x"})
	h2 := ConfigHash(cfg{1, "x"})
	h3 := ConfigHash(cfg{2, "x"})
	if h1 != h2 {
		t.Fatalf("ConfigHash not deterministic: %s vs %s", h1, h2)
	}
	if h1 == h3 {
		t.Fatal("ConfigHash collision on differing configs")
	}
	if len(h1) != 16 {
		t.Fatalf("ConfigHash length = %d, want 16", len(h1))
	}
}

func BenchmarkAppendFsync(b *testing.B) {
	s, err := Open(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		snap := testSnap("identify", simclock.Epoch.Add(time.Duration(i)*time.Minute), fmt.Sprintf("b%d", i))
		if _, err := s.Append(snap); err != nil {
			b.Fatal(err)
		}
	}
}

// TestGetSelectorTable drives every selector form through one store:
// sequence numbers, content-ID prefixes (including an ambiguous one),
// "latest", and "latest:<kind>" across all three snapshot kinds.
func TestGetSelectorTable(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	// Append rotating kinds until two content IDs share a first hex
	// character, so the ambiguous-prefix case exists deterministically.
	kinds := []string{"identify", "table4", "discovery"}
	var metas []Meta
	byFirst := make(map[byte]int)
	ambiguous := ""
	for i := 0; ambiguous == "" || len(metas) < 6; i++ {
		if i >= 64 {
			t.Fatal("no ID prefix collision within 64 snapshots")
		}
		snap := testSnap(kinds[i%len(kinds)], simclock.Epoch.Add(time.Duration(i)*time.Hour), fmt.Sprintf("sel%d", i))
		m, err := s.Append(snap)
		if err != nil {
			t.Fatal(err)
		}
		metas = append(metas, m)
		byFirst[m.ID[0]]++
		if ambiguous == "" && byFirst[m.ID[0]] > 1 {
			ambiguous = string(m.ID[0])
		}
	}
	newestOf := func(kind string) uint64 {
		for i := len(metas) - 1; i >= 0; i-- {
			if metas[i].Kind == kind {
				return metas[i].Seq
			}
		}
		t.Fatalf("no %q snapshot appended", kind)
		return 0
	}

	tests := []struct {
		name     string
		selector string
		wantSeq  uint64
		wantErr  error
	}{
		{name: "sequence number", selector: "3", wantSeq: 3},
		{name: "full content ID", selector: metas[1].ID, wantSeq: metas[1].Seq},
		{name: "unique ID prefix", selector: metas[1].ID[:12], wantSeq: metas[1].Seq},
		{name: "ambiguous ID prefix", selector: ambiguous, wantErr: ErrAmbiguous},
		{name: "latest", selector: "latest", wantSeq: metas[len(metas)-1].Seq},
		{name: "latest identify", selector: "latest:identify", wantSeq: newestOf("identify")},
		{name: "latest table4", selector: "latest:table4", wantSeq: newestOf("table4")},
		{name: "latest discovery", selector: "latest:discovery", wantSeq: newestOf("discovery")},
		{name: "latest of absent kind", selector: "latest:nosuch", wantErr: ErrNotFound},
		{name: "unknown sequence", selector: "9999", wantErr: ErrNotFound},
		{name: "empty selector", selector: "", wantErr: ErrNotFound},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			m, _, err := s.Get(tc.selector)
			if tc.wantErr != nil {
				if !errors.Is(err, tc.wantErr) {
					t.Fatalf("Get(%q) err = %v, want %v", tc.selector, err, tc.wantErr)
				}
				return
			}
			if err != nil {
				t.Fatalf("Get(%q): %v", tc.selector, err)
			}
			if m.Seq != tc.wantSeq {
				t.Fatalf("Get(%q).Seq = %d, want %d", tc.selector, m.Seq, tc.wantSeq)
			}
		})
	}
}
