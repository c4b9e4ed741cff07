package match

import (
	"bytes"
	"math/rand"
	"regexp"
	"strings"
	"testing"
)

func TestIndexFold(t *testing.T) {
	cases := []struct {
		text, pat string
		want      int
	}{
		{"", "", 0},
		{"abc", "", 0},
		{"", "a", -1},
		{"abc", "b", 1},
		{"ABC", "b", 1},
		{"abc", "B", 1},
		{"xxABCxx", "abc", 2},
		{"xxabcxx", "ABC", 2},
		{"aAaAb", "ab", 3},
		{"netsweeper", "NetSweeper", 0},
		{"short", "longerthan", -1},
		{"ab", "abc", -1},
		{"aXbXaYb", "ayb", 4},
		// Fold is ASCII-only: Unicode case pairs must NOT match.
		{"K", "k", -1},     // Kelvin sign
		{"straße", "S", 0}, // but plain ASCII inside still does
	}
	for _, c := range cases {
		if got := IndexFold([]byte(c.text), c.pat); got != c.want {
			t.Errorf("IndexFold(%q, %q) = %d, want %d", c.text, c.pat, got, c.want)
		}
		wantContains := c.want >= 0
		if got := ContainsFold([]byte(c.text), c.pat); got != wantContains {
			t.Errorf("ContainsFold(%q, %q) = %v", c.text, c.pat, got)
		}
	}
}

// TestIndexFoldVsReference cross-checks IndexFold against the obvious
// lower-both-sides implementation on random ASCII-ish inputs.
func TestIndexFoldVsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	alphabet := "aAbBcC<>/ \n\x00\xff"
	for i := 0; i < 2000; i++ {
		n := rng.Intn(40)
		text := make([]byte, n)
		for j := range text {
			text[j] = alphabet[rng.Intn(len(alphabet))]
		}
		m := rng.Intn(5)
		pat := make([]byte, m)
		for j := range pat {
			pat[j] = alphabet[rng.Intn(len(alphabet))]
		}
		// Reference folds byte-wise: strings.ToLower would re-encode
		// invalid UTF-8 (0xff -> U+FFFD) and shift byte offsets.
		asciiLower := func(b []byte) string {
			out := make([]byte, len(b))
			for i, c := range b {
				out[i] = foldTable[c]
			}
			return string(out)
		}
		want := strings.Index(asciiLower(text), asciiLower(pat))
		if got := IndexFold(text, string(pat)); got != want {
			t.Fatalf("IndexFold(%q, %q) = %d, want %d", text, pat, got, want)
		}
	}
}

func TestBytes(t *testing.T) {
	if Bytes("") != nil {
		t.Error("Bytes(\"\") should be nil")
	}
	b := Bytes("hello")
	if string(b) != "hello" || len(b) != 5 {
		t.Errorf("Bytes = %q", b)
	}
	if n := testing.AllocsPerRun(100, func() {
		s := "a moderately long string constant"
		if len(Bytes(s)) != len(s) {
			t.Fatal("len mismatch")
		}
	}); n != 0 {
		t.Errorf("Bytes allocates %v/op", n)
	}
}

func TestLiteral(t *testing.T) {
	l := NewLiteral("Blue Coat")
	if !l.Match([]byte("welcome to the BLUE COAT appliance")) {
		t.Error("folded literal missed")
	}
	if l.Match([]byte("nothing here")) {
		t.Error("false positive")
	}
}

func TestOrdered(t *testing.T) {
	o := NewOrdered([]string{"McAfee", "Notification"})
	if !o.Match([]byte("<title>MCAFEE Web Gateway - notification</title>")) {
		t.Fatal("missed")
	}
	if o.Match([]byte("Notification from McAfee")) {
		t.Error("order not enforced")
	}
	if o.Match([]byte("McAfee only")) {
		t.Error("partial sequence matched")
	}
	// Greedy earliest-occurrence must still find later viable starts.
	if !o.Match([]byte("McAfee ... McAfee Notification")) {
		t.Error("greedy scan missed a match the first literal occurrence allows")
	}
}

func TestOrderedLineGap(t *testing.T) {
	o := NewOrdered([]string{"Location:", "/webadmin/deny/"}, WithLineGap(true))
	same := []byte("Server: x\r\nLocation: http://h:8080/WEBADMIN/deny/index.php\r\n")
	if !o.Match(same) {
		t.Error("same-line match missed")
	}
	split := []byte("Location: http://h/\nX: /webadmin/deny/\n")
	if o.Match(split) {
		t.Error("line-gap matched across a newline")
	}
	// A later line can satisfy the whole sequence.
	later := []byte("Location: http://h/\nLocation: http://h/webadmin/deny/a\n")
	if !o.Match(later) {
		t.Error("per-line rescan missed a later matching line")
	}
	// Equivalence with the regexp it replaces: (?i)A.*B without (?s).
	re := regexp.MustCompile(`(?i)Location:.*?/webadmin/deny/`)
	for _, text := range []string{string(same), string(split), string(later), "", "Location:", "location: /webadmin/deny/"} {
		got := o.Match([]byte(text))
		if want := re.MatchString(text); got != want {
			t.Errorf("line-gap(%q) = %v, regexp = %v", text, got, want)
		}
	}

	defer func() {
		if recover() == nil {
			t.Error("no panic for newline inside WithLineGap literal")
		}
	}()
	NewOrdered([]string{"a\nb"}, WithLineGap(true))
}

func TestBetween(t *testing.T) {
	body := []byte("<html><HEAD><Title> Access Denied </TITLE></head>")
	start, end, ok := Between(body, "<title>", "</title>")
	if !ok || string(body[start:end]) != " Access Denied " {
		t.Errorf("Between = %q, %v", body[start:end], ok)
	}
	if _, _, ok := Between([]byte("<title>unterminated"), "<title>", "</title>"); ok {
		t.Error("unterminated should miss")
	}
	if _, _, ok := Between([]byte("no tags"), "<title>", "</title>"); ok {
		t.Error("absent should miss")
	}
}

func TestZeroAllocMatch(t *testing.T) {
	lit := NewLiteral("powered by netsweeper")
	ord := NewOrdered([]string{"mcafee", "notification"})
	hitText := []byte("<title>McAfee Web Gateway - Notification</title> powered by netsweeper")
	missText := bytes.Repeat([]byte("<p>nothing of note in this body</p>"), 20)
	check := func(name string, f func()) {
		t.Helper()
		if n := testing.AllocsPerRun(200, f); n != 0 {
			t.Errorf("%s allocates %v/op", name, n)
		}
	}
	check("Literal hit", func() { lit.Match(hitText) })
	check("Literal miss", func() { lit.Match(missText) })
	check("Ordered hit", func() { ord.Match(hitText) })
	check("Ordered miss", func() { ord.Match(missText) })
	check("IndexFold", func() { IndexFold(missText, "netsweeper") })
	check("Between", func() { Between(hitText, "<title>", "</title>") })
}
