package categorydb

import (
	"bytes"
	"net/netip"
	"strings"
	"testing"
	"time"

	"filtermap/internal/simclock"
)

func TestSnapshotRoundTrip(t *testing.T) {
	db, clock := newTestDB(t)
	db.AddDomain("shipped.com", "pornography")                 //nolint:errcheck // category exists
	db.Submit("http://early.info/", "proxy", netip.Addr{}, "") //nolint:errcheck // valid
	clock.Advance(db.ReviewDelay)
	// A submission decided after the snapshot time must not appear.
	db.Submit("http://late.info/", "proxy", netip.Addr{}, "") //nolint:errcheck // valid
	at := clock.Now()

	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf, at); err != nil {
		t.Fatalf("WriteSnapshot: %v", err)
	}

	loaded, takenAt, err := ReadSnapshot(&buf, simclock.NewManual(at))
	if err != nil {
		t.Fatalf("ReadSnapshot: %v", err)
	}
	if !takenAt.Equal(at) {
		t.Fatalf("takenAt = %v, want %v", takenAt, at)
	}
	if loaded.Name() != db.Name() {
		t.Fatalf("vendor = %q", loaded.Name())
	}
	if cat, ok := loaded.Lookup("shipped.com"); !ok || cat != "pornography" {
		t.Fatalf("shipped.com = %q, %v", cat, ok)
	}
	if cat, ok := loaded.Lookup("early.info"); !ok || cat != "proxy" {
		t.Fatalf("early.info = %q, %v", cat, ok)
	}
	if _, ok := loaded.Lookup("late.info"); ok {
		t.Fatal("post-snapshot entry leaked into the snapshot")
	}
	// Taxonomy survives, including numbers.
	if c, ok := loaded.CategoryByNumber(23); !ok || c.Code != "pornography" {
		t.Fatalf("category 23 = %+v, %v", c, ok)
	}
}

func TestSnapshotDeterministic(t *testing.T) {
	db, clock := newTestDB(t)
	db.AddDomain("b.com", "proxy")       //nolint:errcheck // category exists
	db.AddDomain("a.com", "pornography") //nolint:errcheck // category exists
	var b1, b2 bytes.Buffer
	db.WriteSnapshot(&b1, clock.Now()) //nolint:errcheck // buffer writes
	db.WriteSnapshot(&b2, clock.Now()) //nolint:errcheck // buffer writes
	if b1.String() != b2.String() {
		t.Fatal("snapshot output not deterministic")
	}
}

func TestReadSnapshotRejectsMalformed(t *testing.T) {
	cases := []string{
		"",
		"not-json\n",
		`{"vendor":"v","entries":2}` + "\n" + `{"kind":"entry","domain":"x.com","category":"nope"}` + "\n",
		`{"vendor":"v","entries":0}` + "\n" + `{"kind":"mystery"}` + "\n",
		// Truncated: header promises 2 entries, file has 1.
		`{"vendor":"v","entries":2}` + "\n" +
			`{"kind":"category","code":"c","name":"C"}` + "\n" +
			`{"kind":"entry","domain":"x.com","category":"c"}` + "\n",
	}
	for i, in := range cases {
		if _, _, err := ReadSnapshot(strings.NewReader(in), nil); err == nil {
			t.Errorf("case %d: malformed snapshot accepted", i)
		}
	}
}

func TestReadSnapshotNilClock(t *testing.T) {
	db, clock := newTestDB(t)
	var buf bytes.Buffer
	if err := db.WriteSnapshot(&buf, clock.Now()); err != nil {
		t.Fatal(err)
	}
	loaded, _, err := ReadSnapshot(&buf, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The adapter falls back to the system clock.
	if loaded.clock.Now().Before(time.Now().Add(-time.Minute)) {
		t.Fatal("nil-clock adapter not using system time")
	}
}
