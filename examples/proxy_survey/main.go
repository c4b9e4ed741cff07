// Transparent-proxy survey (§7 future work): a Netalyzr-style detector
// probes a researcher-controlled echo server from every case-study ISP
// plus a clean network, flagging in-path middleboxes without any vendor
// signatures — with the §4 confirmations as ground truth.
//
//	go run ./examples/proxy_survey
package main

import (
	"context"
	"fmt"
	"log"
	"net/netip"

	"filtermap"

	"filtermap/internal/httpwire"
	"filtermap/internal/netsim"
	"filtermap/internal/proxydetect"
)

func main() {
	w, err := filtermap.NewWorld(filtermap.Options{})
	if err != nil {
		log.Fatal(err)
	}
	defer w.Close()
	ctx := context.Background()

	// Stand up the researchers' reference echo server on neutral hosting.
	const refHost = "echo.measurement.example"
	ref, err := w.Net.AddHost(netip.MustParseAddr("160.153.200.1"), refHost, nil)
	if err != nil {
		log.Fatal(err)
	}
	if _, err := ref.Serve(80, netsim.Public, &httpwire.Server{Handler: proxydetect.EchoHandler()}); err != nil {
		log.Fatal(err)
	}

	// Probe from each case-study ISP plus the (unfiltered) lab network.
	vantages := map[string]*netsim.Host{"UToronto (control)": w.Lab}
	for _, isp := range []string{
		filtermap.ISPEtisalat, filtermap.ISPDu, filtermap.ISPOoredoo,
		filtermap.ISPBayanat, filtermap.ISPNournet, filtermap.ISPYemenNet,
	} {
		vantages[isp] = w.FieldHosts[isp]
	}

	results := proxydetect.Survey(ctx, refHost, vantages)
	fmt.Println("transparent-proxy survey (no vendor signatures used):")
	for _, res := range results {
		fmt.Printf("  %-22s %s\n", res.Label+":", res.Report.Summary())
		for _, e := range res.Report.Evidence {
			fmt.Printf("      - %s\n", e.Detail)
		}
	}

	// Score against the §4 confirmations, exactly as §7 proposes.
	truth := proxydetect.GroundTruth{
		"UToronto (control)":  false,
		filtermap.ISPEtisalat: true,
		filtermap.ISPDu:       true,
		filtermap.ISPOoredoo:  true,
		filtermap.ISPBayanat:  true,
		filtermap.ISPNournet:  true,
		filtermap.ISPYemenNet: true,
	}
	v := proxydetect.Validate(results, truth)
	fmt.Printf("\nvalidation against §4 ground truth: %s\n", v.Summary())
	fmt.Println("\nmiddlebox symptom histogram:")
	fmt.Print(proxydetect.FormatHistogram(proxydetect.EvidenceHistogram(results)))
}
