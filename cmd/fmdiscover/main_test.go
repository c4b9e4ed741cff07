package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"io"
	"os"
	"strings"
	"testing"

	"filtermap"
	"filtermap/internal/plan"
)

// TestMainSingleTarget runs the real main against one vantage with a
// tight crawl budget — flag parsing, world build, crawl, and report.
func TestMainSingleTarget(t *testing.T) {
	out := captureStdout(t, func() {
		os.Args = []string{"fmdiscover", "-rounds", "1", "-budget", "5", "-isps", filtermap.ISPYemenNet}
		main()
	})
	if !strings.Contains(out, "Discovery: crawl-based blocked-URL discovery") {
		t.Fatalf("fmdiscover output missing report header:\n%s", out)
	}
	if !strings.Contains(out, filtermap.ISPYemenNet) {
		t.Fatalf("fmdiscover output missing the requested target:\n%s", out)
	}
}

// TestStoreDedupesAcrossRecorders: -store records under the ConfigHash
// of the run's world options, so the same crawl recorded the way fmhist
// record -run and fmserve snapshots record it (plan.Execute on a fresh
// world, fingerprinted by its options) dedupes onto fmdiscover's record.
func TestStoreDedupesAcrossRecorders(t *testing.T) {
	dir := t.TempDir()
	flag.CommandLine = flag.NewFlagSet("fmdiscover", flag.ExitOnError)
	captureStdout(t, func() {
		os.Args = []string{"fmdiscover", "-rounds", "1", "-budget", "5", "-isps", filtermap.ISPYemenNet, "-store", dir}
		main()
	})

	req := plan.Request{Kind: plan.KindDiscover, Rounds: 1, Budget: 5, ISPs: []string{filtermap.ISPYemenNet}}
	if err := plan.Normalize(&req); err != nil {
		t.Fatal(err)
	}
	w, err := filtermap.NewWorld(req.World)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	p, _ := plan.Lookup(plan.KindDiscover)
	w.Clock.Advance(p.Advance)
	doc, _, err := plan.Execute(context.Background(), w, req)
	if err != nil {
		t.Fatal(err)
	}
	body, err := json.Marshal(doc)
	if err != nil {
		t.Fatal(err)
	}

	s, err := filtermap.OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	meta, err := s.Append(filtermap.Snapshot{
		Kind:   p.StoreKind,
		At:     w.Clock.Now(),
		Config: filtermap.ConfigHash(req.World),
		Body:   body,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !meta.Deduped || meta.Seq != 1 {
		t.Fatalf("second append = seq %d (deduped %v), want a dedupe onto fmdiscover's seq 1", meta.Seq, meta.Deduped)
	}
}

// captureStdout redirects os.Stdout around fn and returns what it wrote.
func captureStdout(t *testing.T, fn func()) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatalf("pipe: %v", err)
	}
	orig := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = orig }()
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r) //nolint:errcheck // read side of our own pipe
		done <- buf.String()
	}()
	fn()
	w.Close()
	os.Stdout = orig
	return <-done
}
