package common

import (
	"fmt"
	"strings"
)

// HTMLPage renders a minimal HTML document. Vendor block pages and admin
// consoles are built from it; fingerprint signatures match on the title
// and body text.
func HTMLPage(title, body string) []byte {
	var b strings.Builder
	b.WriteString("<!DOCTYPE html>\n<html>\n<head>\n<title>")
	b.WriteString(htmlEscape(title))
	b.WriteString("</title>\n</head>\n<body>\n")
	b.WriteString(body)
	b.WriteString("\n</body>\n</html>\n")
	return []byte(b.String())
}

// htmlEscaper is built once: a Replacer is safe for concurrent use.
var htmlEscaper = strings.NewReplacer("&", "&amp;", "<", "&lt;", ">", "&gt;", `"`, "&quot;")

// htmlEscape escapes text for inclusion in an HTML document.
func htmlEscape(s string) string { return htmlEscaper.Replace(s) }

// Para renders one HTML paragraph with escaped text.
func Para(format string, args ...any) string {
	return "<p>" + htmlEscape(fmt.Sprintf(format, args...)) + "</p>"
}
