package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"filtermap/internal/report"
	"filtermap/internal/store"
)

// TestMainListEmpty runs the real main's list subcommand against a fresh
// store directory.
func TestMainListEmpty(t *testing.T) {
	out := runMain(t, "-dir", t.TempDir(), "list")
	if !strings.Contains(out, "no snapshots") {
		t.Fatalf("fmhist list on an empty store should say so:\n%s", out)
	}
}

// TestMainDiffJSONAfterRecordIn runs README's record -in walkthrough:
// two ingested identify documents, then `diff -json 1 2`, whose
// document must report the installation the second one added. The
// flag written after the selectors is an error that names it.
func TestMainDiffJSONAfterRecordIn(t *testing.T) {
	dir := t.TempDir()
	install := func(ip string) report.InstallationDoc {
		return report.InstallationDoc{IP: ip, Products: []string{"Netsweeper"}, Country: "YE"}
	}
	for i, doc := range []report.IdentifyDoc{
		{Installations: []report.InstallationDoc{install("192.0.2.1")}},
		{Installations: []report.InstallationDoc{install("192.0.2.1"), install("192.0.2.2")}},
	} {
		in := filepath.Join(dir, []string{"monday.json", "nextweek.json"}[i])
		body, err := json.Marshal(doc)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(in, body, 0o644); err != nil {
			t.Fatal(err)
		}
		runMain(t, "-dir", filepath.Join(dir, "hist"), "record", "-in", in)
	}

	out := runMain(t, "-dir", filepath.Join(dir, "hist"), "diff", "-json", "1", "2")
	var d struct {
		Installs struct {
			Added []report.InstallationDoc `json:"added"`
		} `json:"installs"`
	}
	if err := json.Unmarshal([]byte(out), &d); err != nil {
		t.Fatalf("diff -json output is not JSON: %v\n%s", err, out)
	}
	if len(d.Installs.Added) != 1 || d.Installs.Added[0].IP != "192.0.2.2" {
		t.Fatalf("diff -json 1 2 added %+v, want 192.0.2.2:\n%s", d.Installs.Added, out)
	}

	s, err := store.Open(filepath.Join(dir, "hist"))
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for _, args := range [][]string{{"1", "2", "-json"}, {"1", "2", "3"}} {
		err := diff(s, args)
		if err == nil || !strings.Contains(err.Error(), args[2]) || !strings.Contains(err.Error(), "flags go before") {
			t.Errorf("diff %v = %v, want an error naming %q and saying flags go first", args, err, args[2])
		}
	}
	if err := show(s, []string{"1", "-json"}); err == nil || !strings.Contains(err.Error(), "-json") {
		t.Errorf("show 1 -json = %v, want an error naming -json", err)
	}
}

// runMain runs the real main with args on a fresh flag set and returns
// what it wrote to stdout.
func runMain(t *testing.T, args ...string) string {
	t.Helper()
	flag.CommandLine = flag.NewFlagSet("fmhist", flag.ExitOnError)
	os.Args = append([]string{"fmhist"}, args...)
	return captureStdout(t, main)
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
