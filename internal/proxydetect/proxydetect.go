// Package proxydetect implements the paper's future-work direction (§7):
// general-purpose transparent-proxy detection in the style of Netalyzr
// [12, 17], for which the confirmation methodology "can provide a useful
// ground truth".
//
// The technique needs no product signatures: a client inside the network
// under test fetches a reference server the researchers control. The
// server echoes the request exactly as received; the client compares what
// arrived with what it sent, and the response with what the server
// produced. Any in-path middlebox reveals itself by what it touches —
// added Via/X-Forwarded-For headers, rewritten or reordered headers,
// answered-without-origin-contact (block pages), or modified bodies.
//
// Against the simulated world this detector flags every filtering ISP of
// the study without knowing any vendor signatures — exactly the
// "scalable technique [using] our methodology ... as ground truth" the
// paper calls for.
package proxydetect

import (
	"bufio"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"sort"
	"strings"
	"time"

	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
)

// probeMarker is a header no real client or origin uses; middleboxes that
// drop or rewrite unknown headers reveal themselves through it.
const probeMarker = "X-Proxydetect-Nonce"

// EchoPath is the reference server's echo endpoint.
const EchoPath = "/echo"

// EchoHandler returns the reference-server handler: it reflects the
// request line and every header (in wire order and case) in the body,
// plus a content hash so body tampering is detectable.
func EchoHandler() httpwire.Handler {
	return httpwire.HandlerFunc(func(req *httpwire.Request) *httpwire.Response {
		var b strings.Builder
		fmt.Fprintf(&b, "method=%s target=%s proto=%s\n", req.Method, req.Target, req.Proto)
		for _, f := range req.Header.Fields() {
			fmt.Fprintf(&b, "hdr:%s: %s\n", f.Name, f.Value)
		}
		body := b.String()
		sum := sha256.Sum256([]byte(body))
		hdr := httpwire.NewHeader(
			"Content-Type", "text/plain; charset=utf-8",
			"X-Echo-Digest", hex.EncodeToString(sum[:]),
		)
		return httpwire.NewResponse(200, hdr, []byte(body))
	})
}

// Evidence is one observed middlebox symptom.
type Evidence struct {
	// Kind is a stable symptom identifier.
	Kind string
	// Detail is human-readable.
	Detail string
}

// Symptom kinds.
const (
	KindViaAdded        = "via-header-added"
	KindHeaderInjected  = "header-injected"
	KindMarkerDropped   = "probe-header-dropped"
	KindMarkerRewritten = "probe-header-rewritten"
	KindShortCircuited  = "origin-never-contacted"
	KindDigestMismatch  = "digest-mismatch"
)

// Report is the outcome of one detection run.
type Report struct {
	// Intercepted reports whether any middlebox symptom was observed.
	Intercepted bool
	// Evidence lists the symptoms, sorted by kind.
	Evidence []Evidence
	// Err is the transport error if the probe could not complete at all.
	Err error
}

// Summary renders the evidence compactly.
func (r *Report) Summary() string {
	if r.Err != nil {
		return "probe failed: " + r.Err.Error()
	}
	if !r.Intercepted {
		return "no middlebox observed"
	}
	kinds := make([]string, len(r.Evidence))
	for i, e := range r.Evidence {
		kinds[i] = e.Kind
	}
	return "intercepted: " + strings.Join(kinds, ", ")
}

// Detector probes for transparent proxies from a vantage host.
type Detector struct {
	// Vantage is the client position (inside the network under test).
	Vantage *netsim.Host
	// RefHost is the reference server's hostname (must serve EchoHandler
	// on port 80 at EchoPath).
	RefHost string
}

// probeTimeout bounds one probe.
const probeTimeout = 10 * time.Second

// Detect runs one probe.
func (d *Detector) Detect(ctx context.Context) *Report {
	ctx, cancel := context.WithTimeout(ctx, probeTimeout)
	defer cancel()

	nonce := fmt.Sprintf("pd-%d", time.Now().UnixNano())
	req, err := httpwire.NewRequest("GET", "http://"+d.RefHost+EchoPath)
	if err != nil {
		return &Report{Err: err}
	}
	req.Header.Add(probeMarker, nonce)
	req.Header.Add("Connection", "close")

	conn, err := d.Vantage.DialHost(ctx, d.RefHost, 80)
	if err != nil {
		return &Report{Err: fmt.Errorf("proxydetect: dial: %w", err)}
	}
	defer conn.Close()
	if dl, ok := ctx.Deadline(); ok {
		conn.SetDeadline(dl) //nolint:errcheck // best-effort
	}
	if _, err := req.WriteTo(conn); err != nil {
		return &Report{Err: fmt.Errorf("proxydetect: write: %w", err)}
	}
	resp, err := httpwire.ReadResponse(bufio.NewReader(conn), false)
	if err != nil {
		return &Report{Err: fmt.Errorf("proxydetect: read: %w", err)}
	}
	return Analyze(req, resp, nonce)
}

// Analyze compares the sent request with the reference server's echo and
// the response envelope, collecting middlebox evidence. It is exposed
// separately so recorded exchanges can be analyzed offline.
func Analyze(sent *httpwire.Request, resp *httpwire.Response, nonce string) *Report {
	rep := &Report{}
	add := func(kind, format string, args ...any) {
		rep.Evidence = append(rep.Evidence, Evidence{Kind: kind, Detail: fmt.Sprintf(format, args...)})
	}

	body := string(resp.Body)
	echoed := parseEcho(body)

	// Did the origin ever see the request? An echo body always carries
	// the method line; block pages and other short-circuit responses do
	// not.
	if !strings.HasPrefix(body, "method=") {
		add(KindShortCircuited, "response is not the reference echo (status %d, %d bytes)", resp.StatusCode, len(resp.Body))
		rep.Intercepted = true
		sort.Slice(rep.Evidence, func(i, j int) bool { return rep.Evidence[i].Kind < rep.Evidence[j].Kind })
		return rep
	}

	// Digest check: body tampering between origin and client.
	if digest := resp.Header.Get("X-Echo-Digest"); digest != "" {
		sum := sha256.Sum256(resp.Body)
		if hex.EncodeToString(sum[:]) != digest {
			add(KindDigestMismatch, "body digest mismatch")
		}
	}

	// Proxy-added headers on the response.
	if via := resp.Header.Get("Via"); via != "" {
		add(KindViaAdded, "response Via: %s", via)
	}

	// Marker fate on the request path.
	markerVal, markerSeen := echoed[strings.ToLower(probeMarker)]
	switch {
	case !markerSeen:
		add(KindMarkerDropped, "origin never received %s", probeMarker)
	case markerVal != nonce:
		add(KindMarkerRewritten, "origin received %s=%q, sent %q", probeMarker, markerVal, nonce)
	}

	// Headers the origin saw that the client never sent.
	sentNames := make(map[string]bool)
	for _, f := range sent.Header.Fields() {
		sentNames[strings.ToLower(f.Name)] = true
	}
	var injected []string
	for name := range echoed {
		if !sentNames[name] && !benignAutoHeader(name) {
			injected = append(injected, name)
		}
	}
	sort.Strings(injected)
	for _, name := range injected {
		add(KindHeaderInjected, "origin saw injected header %q = %q", name, echoed[name])
	}

	rep.Intercepted = len(rep.Evidence) > 0
	sort.Slice(rep.Evidence, func(i, j int) bool { return rep.Evidence[i].Kind < rep.Evidence[j].Kind })
	return rep
}

// benignAutoHeader reports headers legitimately added by well-behaved
// clients/stacks rather than by interception.
func benignAutoHeader(name string) bool {
	switch name {
	case "content-length", "user-agent":
		return true
	default:
		return false
	}
}

// parseEcho extracts the header map the origin reported, lowercased.
func parseEcho(body string) map[string]string {
	out := make(map[string]string)
	for _, line := range strings.Split(body, "\n") {
		rest, ok := strings.CutPrefix(line, "hdr:")
		if !ok {
			continue
		}
		name, value, ok := strings.Cut(rest, ": ")
		if !ok {
			continue
		}
		out[strings.ToLower(name)] = value
	}
	return out
}

// SurveyResult pairs a network label with its detection report.
type SurveyResult struct {
	Label  string
	Report *Report
}

// Survey probes from several vantages against one reference server and
// returns per-network reports — the scalable sweep §7 envisions, with the
// per-product confirmations of §4 as its ground truth.
func Survey(ctx context.Context, refHost string, vantages map[string]*netsim.Host) []SurveyResult {
	labels := make([]string, 0, len(vantages))
	for l := range vantages {
		labels = append(labels, l)
	}
	sort.Strings(labels)
	out := make([]SurveyResult, 0, len(labels))
	for _, label := range labels {
		d := &Detector{Vantage: vantages[label], RefHost: refHost}
		out = append(out, SurveyResult{Label: label, Report: d.Detect(ctx)})
	}
	return out
}
