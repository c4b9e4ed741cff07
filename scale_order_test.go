// Satellite property test for generation-order independence: dialing a
// seeded random permutation of the synthetic population across
// goroutines must yield exactly the world — hosts, names, whois, open
// ports, engine counters, and the scan report — that strictly
// sequential address-order access yields.
package filtermap_test

import (
	"context"
	"math/rand"
	"net/netip"
	"sort"
	"sync"
	"testing"

	"filtermap"
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

// dialAll materializes addrs through the ordinary dial path using the
// given number of goroutines (1 = strictly sequential, in slice order).
func dialAll(t *testing.T, w *filtermap.World, addrs []netip.Addr, goroutines int) {
	t.Helper()
	src := w.Net.Hosts()[0]
	ctx := context.Background()
	dial := func(addr netip.Addr) {
		// Dark hosts refuse the dial after materializing; that is the
		// normal sweep experience, not an error.
		if c, err := src.Dial(ctx, addr, 80); err == nil {
			c.Close()
		}
	}
	if goroutines <= 1 {
		for _, addr := range addrs {
			dial(addr)
		}
		return
	}
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := g; i < len(addrs); i += goroutines {
				dial(addrs[i])
			}
		}(g)
	}
	wg.Wait()
}

// worldFingerprint flattens the observable state of every synthetic
// host into comparable lines: address, reverse name, ISP, ASN, country,
// and open ports.
func worldFingerprint(t *testing.T, w *filtermap.World) []string {
	t.Helper()
	var lines []string
	for _, addr := range syntheticAddrs(w) {
		h, ok := w.Net.Host(addr)
		if !ok {
			t.Fatalf("synthetic host %s not materialized", addr)
		}
		as, ok := w.Net.LookupAS(addr)
		if !ok {
			t.Fatalf("no AS for %s", addr)
		}
		line := addr.String() + " name=" + h.Name() + " isp=" + h.ISP().Name +
			" asn=" + as.Name + " cc=" + as.Country
		ports := h.OpenPorts()
		sort.Slice(ports, func(i, j int) bool { return ports[i] < ports[j] })
		for _, p := range ports {
			line += " port=" + netip.AddrPortFrom(addr, p).String()
		}
		lines = append(lines, line)
	}
	return lines
}

func TestScaleOrderIndependence(t *testing.T) {
	build := func() *filtermap.World {
		return scaleWorld(t, filtermap.Options{Scale: filtermap.ScaleCity}, scaleBuild{workers: 8})
	}

	// Reference: strict sequential materialization in address order.
	seq := build()
	addrs := syntheticAddrs(seq)
	dialAll(t, seq, addrs, 1)

	// Property run: a seeded random permutation, eight dialers.
	perm := build()
	shuffled := append([]netip.Addr(nil), syntheticAddrs(perm)...)
	rng := rand.New(rand.NewSource(0xfee1))
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })
	dialAll(t, perm, shuffled, 8)

	// World state must be identical host for host.
	seqFP, permFP := worldFingerprint(t, seq), worldFingerprint(t, perm)
	if len(seqFP) != len(permFP) {
		t.Fatalf("materialized %d vs %d synthetic hosts", len(seqFP), len(permFP))
	}
	for i := range seqFP {
		if seqFP[i] != permFP[i] {
			t.Fatalf("host %d diverged:\n  sequential: %s\n  permuted:   %s", i, seqFP[i], permFP[i])
		}
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
	diffArtifacts(t, "identify report after permuted materialization",
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
