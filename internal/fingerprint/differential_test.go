package fingerprint

import (
	"bytes"
	"strings"
	"testing"

	"filtermap/internal/corpustest"
)

// referenceExtractTitle is the seed implementation, frozen: build a full
// lowered copy of the body, index into it, then slice the original. The
// zero-copy ExtractTitleBytes must agree with it byte for byte.
func referenceExtractTitle(body []byte) (string, bool) {
	lower := make([]byte, len(body))
	for i, c := range body {
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		lower[i] = c
	}
	start := bytes.Index(lower, []byte("<title>"))
	if start < 0 {
		return "", false
	}
	rest := lower[start+len("<title>"):]
	end := bytes.Index(rest, []byte("</title>"))
	if end < 0 {
		return "", false
	}
	orig := body[start+len("<title>") : start+len("<title>")+end]
	return strings.TrimSpace(string(orig)), true
}

func titleCases(t *testing.T) [][]byte {
	t.Helper()
	var cases [][]byte
	entries, err := corpustest.Load("testdata/fuzz/FuzzExtractTitle")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		cases = append(cases, e.Bytes(0))
	}
	for _, s := range []string{
		"",
		"<title></title>",
		"<TITLE>Upper</TITLE>",
		"<TiTlE>  mixed  </tItLe>",
		"no tags at all",
		"<title>unterminated",
		"</title><title>close first</title>",
		"<title>a</title><title>b</title>",
		"pre\xff<TITLE>\xfe raw \xff</TITLE>post",
		"<title> nbsp is unicode space </title>",
		"<title>\n\t windows line \r\n</title>",
		"< title>not the tag</title>",
		"<title >attr-like, not the tag</title>",
		"<title><title>nested</title></title>",
	} {
		cases = append(cases, []byte(s))
	}
	return cases
}

// TestDifferentialExtractTitle replays the committed fuzz corpus plus a
// constructed battery through the seed implementation and the zero-copy
// rewrite.
func TestDifferentialExtractTitle(t *testing.T) {
	for _, body := range titleCases(t) {
		wantS, wantOK := referenceExtractTitle(body)
		gotB, okB := ExtractTitleBytes(body)
		if okB != wantOK || string(gotB) != wantS {
			t.Errorf("ExtractTitleBytes(%q) = %q,%v; reference %q,%v", body, gotB, okB, wantS, wantOK)
		}
	}
}

// TestZeroAllocExtractTitleBytes pins 0 allocs/op for the byte extractor
// on hit and miss. CI runs this.
func TestZeroAllocExtractTitleBytes(t *testing.T) {
	hit := []byte("<html><head><TITLE>  Netsweeper WebAdmin  </TITLE></head><body>x</body></html>")
	miss := []byte("<html><head></head><body>plain page with no title element anywhere</body></html>")
	if s, ok := ExtractTitleBytes(hit); !ok || string(s) != "Netsweeper WebAdmin" {
		t.Fatalf("hit sanity: %q %v", s, ok)
	}
	for _, tc := range []struct {
		name string
		body []byte
	}{{"hit", hit}, {"miss", miss}} {
		if n := testing.AllocsPerRun(200, func() { ExtractTitleBytes(tc.body) }); n != 0 {
			t.Errorf("ExtractTitleBytes %s allocates %v/op, want 0", tc.name, n)
		}
	}
}
