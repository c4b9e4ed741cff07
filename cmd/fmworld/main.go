// Command fmworld exposes the simulated vendors over real loopback TCP,
// demonstrating that the library's HTTP stack and signatures operate on
// real sockets, not only on the in-memory transport.
//
// Serve mode mounts the vendor cloud services and sample product
// endpoints on consecutive ports:
//
//	fmworld serve -base 18080
//	  18080  Blue Coat Site Review portal
//	  18081  McAfee TrustedSource portal + sample block page (/blocked?url=...)
//	  18082  Netsweeper test-a-site + deny-page tests
//	  18083  Websense sample block redirect (/any -> :18083 blockpage.cgi)
//
// Probe mode fetches a URL over real TCP and evaluates the Table 2
// signature registry against the response:
//
//	fmworld probe http://127.0.0.1:18081/blocked?url=http://example.com/
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"os"
	"time"

	"filtermap/internal/categorydb"
	"filtermap/internal/fingerprint"
	"filtermap/internal/httpwire"
	"filtermap/internal/products/bluecoat"
	"filtermap/internal/products/common"
	"filtermap/internal/products/netsweeper"
	"filtermap/internal/products/smartfilter"
	"filtermap/internal/products/websense"
	"filtermap/internal/simclock"
	"filtermap/internal/version"
)

func main() {
	if len(os.Args) < 2 {
		usage()
	}
	switch os.Args[1] {
	case "-version", "--version":
		fmt.Println("fmworld " + version.String())
	case "serve":
		fs := flag.NewFlagSet("serve", flag.ExitOnError)
		base := fs.Int("base", 18080, "first TCP port")
		host := fs.String("host", "127.0.0.1", "listen address")
		fs.Parse(os.Args[2:]) //nolint:errcheck // ExitOnError
		serve(*host, *base)
	case "probe":
		fs := flag.NewFlagSet("probe", flag.ExitOnError)
		fs.Parse(os.Args[2:]) //nolint:errcheck // ExitOnError
		if fs.NArg() != 1 {
			usage()
		}
		probe(fs.Arg(0))
	default:
		usage()
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, "usage: fmworld serve [-base 18080] | fmworld probe <url>")
	os.Exit(2)
}

func serve(host string, base int) {
	clock := simclock.System{}

	bcDB := bluecoat.NewDatabase(clock)
	sfDB := smartfilter.NewDatabase(clock)
	nsDB := netsweeper.NewDatabase(clock)
	wsDB := websense.NewDatabase(clock)
	seed := func(db *categorydb.DB, domain, cat string) {
		if err := db.AddDomain(domain, cat); err != nil {
			log.Fatal(err)
		}
	}
	seed(sfDB, "example.com", smartfilter.CatPornography)
	seed(nsDB, "example.com", netsweeper.CatPornography)
	seed(wsDB, "example.com", websense.CatAdultContent)
	seed(bcDB, "example.com", bluecoat.CatPornography)

	sfEngine := &smartfilter.Engine{
		View:        &common.SyncView{DB: sfDB},
		Policy:      common.NewCategoryPolicy(smartfilter.CatPornography),
		GatewayName: "mwg-demo.local",
	}
	nsEngine := &netsweeper.Engine{
		View:     &common.SyncView{DB: nsDB},
		Policy:   common.NewCategoryPolicy(netsweeper.CatPornography),
		DenyHost: fmt.Sprintf("%s:%d", host, base+2),
	}
	wsEngine := &websense.Engine{
		View:      &common.SyncView{DB: wsDB},
		Policy:    common.NewCategoryPolicy(websense.CatAdultContent),
		BlockHost: host,
	}

	// Port base+0: Blue Coat Site Review.
	mount(host, base, "Blue Coat Site Review", bluecoat.SiteReviewHandler(bcDB))

	// Port base+1: TrustedSource + a SmartFilter block-page demo.
	sfMux := &httpwire.Mux{}
	sfMux.Route("/url-check", smartfilter.SubmissionPortalHandler(sfDB))
	sfMux.Route("/url-submit", smartfilter.SubmissionPortalHandler(sfDB))
	sfMux.RouteFunc("/blocked", func(req *httpwire.Request) *httpwire.Response {
		target := req.URL.Query().Get("url")
		if target == "" {
			target = "http://example.com/"
		}
		demo, err := httpwire.NewRequest("GET", target)
		if err != nil {
			return httpwire.NewResponse(400, nil, []byte("bad url\n"))
		}
		if d := sfEngine.Decide(demo, time.Now()); d.Block {
			return d.Response
		}
		return httpwire.NewResponse(200, nil, []byte("not blocked by demo policy\n"))
	})
	mount(host, base+1, "McAfee TrustedSource + block demo", sfMux)

	// Port base+2: Netsweeper services.
	nsMux := &httpwire.Mux{}
	nsMux.Route("/support/test-a-site", netsweeper.TestASiteHandler(nsDB))
	nsMux.Route("/category/", netsweeper.DenyPageTestsHandler(nsDB))
	nsMux.RouteFunc("/blocked", func(req *httpwire.Request) *httpwire.Response {
		target := req.URL.Query().Get("url")
		if target == "" {
			target = "http://example.com/"
		}
		demo, err := httpwire.NewRequest("GET", target)
		if err != nil {
			return httpwire.NewResponse(400, nil, []byte("bad url\n"))
		}
		if d := nsEngine.Decide(demo, time.Now()); d.Block {
			return d.Response
		}
		return httpwire.NewResponse(200, nil, []byte("not blocked by demo policy\n"))
	})
	mount(host, base+2, "Netsweeper test-a-site + deny tests", nsMux)

	// Port base+3: Websense block redirect demo.
	wsMux := &httpwire.Mux{}
	wsMux.RouteFunc("/blocked", func(req *httpwire.Request) *httpwire.Response {
		target := req.URL.Query().Get("url")
		if target == "" {
			target = "http://example.com/"
		}
		demo, err := httpwire.NewRequest("GET", target)
		if err != nil {
			return httpwire.NewResponse(400, nil, []byte("bad url\n"))
		}
		if d := wsEngine.Decide(demo, time.Now()); d.Block {
			return d.Response
		}
		return httpwire.NewResponse(200, nil, []byte("not blocked by demo policy\n"))
	})
	mount(host, base+3, "Websense block redirect demo", wsMux)

	log.Printf("fmworld serving on %s ports %d-%d; try: fmworld probe http://%s:%d/blocked",
		host, base, base+3, host, base+1)
	select {}
}

func mount(host string, port int, label string, handler httpwire.Handler) {
	l, err := net.Listen("tcp", fmt.Sprintf("%s:%d", host, port))
	if err != nil {
		log.Fatalf("%s: %v", label, err)
	}
	srv := &httpwire.Server{Handler: handler}
	log.Printf("  %-40s http://%s:%d/", label, host, port)
	go srv.Serve(l) //nolint:errcheck // ends with listener
}

func probe(rawurl string) {
	client := &httpwire.Client{Dial: httpwire.NetDialer(), Timeout: 5 * time.Second}
	resp, err := client.Get(context.Background(), rawurl)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s\n", resp.Status())
	for _, f := range resp.Header.Fields() {
		fmt.Printf("  %s: %s\n", f.Name, f.Value)
	}
	matched := false
	for _, sig := range fingerprint.Table2Signatures() {
		if sig.Matches(resp) {
			fmt.Printf("MATCH %s\n", sig.Describe())
			matched = true
		}
	}
	if !matched {
		fmt.Println("no product signature matched")
	}
}
