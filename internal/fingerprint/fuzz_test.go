package fingerprint

import (
	"strings"
	"testing"
)

// FuzzExtractTitle throws arbitrary HTML at the title extractor used by
// the WhatWeb-style signatures. It must never panic, and an extracted
// title must actually come from between a <title> pair in the input.
func FuzzExtractTitle(f *testing.F) {
	f.Add([]byte("<html><head><title>Netsweeper WebAdmin</title></head></html>"))
	f.Add([]byte("<TITLE>McAfee Web Gateway - Notification</TITLE>"))
	f.Add([]byte("<title>unterminated"))
	f.Add([]byte("</title><title>"))
	f.Add([]byte("<title>\xff\xfe\x00 binary \x7f</title>"))
	f.Add([]byte("no markup at all"))
	f.Add([]byte("<title></title><title>second</title>"))
	f.Fuzz(func(t *testing.T, body []byte) {
		b, ok := ExtractTitleBytes(body)
		title := string(b)
		if !ok {
			if title != "" {
				t.Fatalf("no-title result carries text %q", title)
			}
			return
		}
		if len(title) > len(body) {
			t.Fatalf("title %d bytes from %d-byte body", len(title), len(body))
		}
		// The extractor trims whitespace but must not invent bytes: the
		// title has to appear verbatim in the input.
		if title != "" && !strings.Contains(string(body), title) {
			t.Fatalf("title %q absent from input", title)
		}
		if strings.Contains(strings.ToLower(title), "</title>") {
			t.Fatalf("title %q crosses its own closing tag", title)
		}
	})
}
