// Satellite property test for access-order independence: probing a
// seeded random permutation of the synthetic population across
// goroutines must observe exactly the world — dial outcomes, banners,
// names, whois and geolocation, engine counters, and the scan report —
// that strictly sequential address-order probing observes.
package filtermap_test

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net/netip"
	"strings"
	"sync"
	"testing"
	"time"

	"filtermap"
	"filtermap/internal/netsim"
	"filtermap/internal/scanner"
)

// syntheticAddrs returns the realm-backed (class E) addresses of a
// world's sweep surface, in address order.
func syntheticAddrs(w *filtermap.World) []netip.Addr {
	var out []netip.Addr
	for _, a := range w.Net.Addrs() {
		if a.Is4() && a.As4()[0] >= 240 {
			out = append(out, a)
		}
	}
	return out
}

// probeOutcome dials addr:port from src and reports what a scanner
// sees: the refusal, or the first line answering a GET.
func probeOutcome(src *netsim.Host, addr netip.Addr, port uint16) string {
	c, err := src.Dial(context.Background(), addr, port)
	switch {
	case errors.Is(err, netsim.ErrConnRefused):
		return "refused"
	case err != nil:
		return "error " + err.Error()
	}
	defer c.Close()
	c.SetDeadline(time.Now().Add(5 * time.Second)) //nolint:errcheck // in-memory pipe
	fmt.Fprintf(c, "GET / HTTP/1.0\r\nHost: %s\r\nConnection: close\r\n\r\n", addr)
	line, err := bufio.NewReader(c).ReadString('\n')
	if err != nil {
		return "read error " + err.Error()
	}
	return "open " + strings.TrimSpace(line)
}

// worldFingerprint probes addrs in the given order across goroutines
// (1 = strictly sequential) and flattens what each address exposes into
// one line, returned in address order: reverse name, whois, country and
// the outcome on every scan port.
func worldFingerprint(w *filtermap.World, addrs []netip.Addr, goroutines int) []string {
	sorted := syntheticAddrs(w)
	pos := make(map[netip.Addr]int, len(sorted))
	for i, a := range sorted {
		pos[a] = i
	}
	lines := make([]string, len(sorted))
	probe := func(addr netip.Addr) {
		name, _ := w.Net.ReverseLookup(addr)
		as, _ := w.ASTable.Lookup(addr)
		cc, _ := w.GeoDB.Country(addr)
		line := fmt.Sprintf("%s name=%s asn=%d as=%s cc=%s", addr, name, as.ASN, as.Name, cc)
		for _, port := range scanner.DefaultPorts {
			line += fmt.Sprintf(" %d=%s", port, probeOutcome(w.ScanVantage, addr, port))
		}
		lines[pos[addr]] = line
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(addrs); i += goroutines {
				probe(addrs[i])
			}
		}(g)
	}
	wg.Wait()
	return lines
}

func TestScaleOrderIndependence(t *testing.T) {
	build := func() *filtermap.World {
		return scaleWorld(t, filtermap.Options{Scale: filtermap.ScaleCity}, 8)
	}

	// Reference: strict sequential probing in address order.
	seq := build()
	seqFP := worldFingerprint(seq, syntheticAddrs(seq), 1)

	// Property run: a seeded random permutation, eight probers.
	perm := build()
	shuffled := syntheticAddrs(perm)
	rng := rand.New(rand.NewSource(0xfee1))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	permFP := worldFingerprint(perm, shuffled, 8)

	// Every address must look identical.
	if len(seqFP) != len(permFP) {
		t.Fatalf("probed %d vs %d synthetic hosts", len(seqFP), len(permFP))
	}
	open := 0
	for i := range seqFP {
		if seqFP[i] != permFP[i] {
			t.Fatalf("host %d diverged:\n  sequential: %s\n  permuted:   %s", i, seqFP[i], permFP[i])
		}
		open += strings.Count(seqFP[i], "=open ")
	}
	if open == 0 {
		t.Fatal("no synthetic port answered: the fingerprint is vacuous")
	}

	// The scan report over the two worlds must be byte-identical...
	seqRep, err := seq.RunIdentification(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	permRep, err := perm.RunIdentification(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var r filtermap.Reporter
	diffArtifacts(t, "identify report after permuted probing",
		r.Figure1(seqRep)+"\n"+r.Installations(seqRep),
		r.Figure1(permRep)+"\n"+r.Installations(permRep))

	// ...and so must World.Stats(): same stages, same attempt/success/
	// failure counters (latency samples are timing, not behavior).
	seqStats, permStats := seq.Stats().Snapshot(), perm.Stats().Snapshot()
	if len(seqStats.Stages) != len(permStats.Stages) {
		t.Fatalf("engine ran %d vs %d stages", len(seqStats.Stages), len(permStats.Stages))
	}
	for i, ss := range seqStats.Stages {
		ps := permStats.Stages[i]
		if ss.Stage != ps.Stage || ss.Attempts != ps.Attempts || ss.Successes != ps.Successes ||
			ss.Retries != ps.Retries || ss.Failures != ps.Failures || ss.Timeouts != ps.Timeouts {
			t.Fatalf("stage %q counters diverged:\n  sequential: %+v\n  permuted:   %+v", ss.Stage, ss, ps)
		}
	}
}
