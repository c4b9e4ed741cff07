// Command fmmonitor runs the continuous-measurement loop headless: N
// virtual ticks of scheduled re-scans over a churning simulated
// Internet, printing the longitudinal event log — the same stream
// fmserve serves live on GET /v1/watch.
//
// Usage:
//
//	fmmonitor [-ticks N] [-tick DUR] [-seed N] [-world-seed N]
//	          [-workers N] [-plans a,b] [-no-churn] [-json] [-summary]
//	          [-store DIR] [-chaos seed] [-fault-profile name]
//
// Each tick advances the virtual clock (default 24h), applies one
// scripted churn operation (a filtering install, removal, upgrade or
// ASN migration — suppress with -no-churn), and runs every scan plan
// that has come due, appending its document to the snapshot store and
// diffing it against the previous one. The event log is deterministic:
// the same -seed/-world-seed/-ticks yields the same bytes at any
// -workers count.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"

	"filtermap"

	"filtermap/internal/version"
	"filtermap/internal/world"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("fmmonitor: ")
	ticks := flag.Int("ticks", 7, "virtual ticks to run")
	tick := flag.Duration("tick", 0, "virtual duration of one tick (0 = 24h)")
	seed := flag.Uint64("seed", 0, "churn/jitter script seed")
	worldSeed := flag.Int64("world-seed", 0, "monitored-world seed")
	plans := flag.String("plans", "", "comma-separated plan subset: identify, mechanisms, discovery (default: all)")
	noChurn := flag.Bool("no-churn", false, "freeze the landscape (no installs/removals between ticks)")
	asJSON := flag.Bool("json", false, "emit the event stream as JSON lines")
	summary := flag.Bool("summary", false, "append the scheduler-counter summary")
	storeDir := flag.String("store", "", "persist snapshots into this store directory (default: in-memory)")
	worldFlags := world.Flags(flag.CommandLine)
	checkVersion := version.Flag(flag.CommandLine, "fmmonitor")
	flag.Parse()
	checkVersion()

	if *ticks <= 0 {
		log.Fatal("-ticks must be positive")
	}
	selected, err := selectPlans(*plans)
	if err != nil {
		log.Fatal(err)
	}

	st, err := filtermap.OpenStore(*storeDir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()

	worldOpts, engOpts := worldFlags(filtermap.Options{Seed: *worldSeed})
	mon, err := filtermap.NewMonitor(filtermap.MonitorOptions{
		Seed:    *seed,
		Tick:    *tick,
		Plans:   selected,
		World:   worldOpts,
		Engine:  engOpts,
		NoChurn: *noChurn,
	}, st)
	if err != nil {
		log.Fatal(err)
	}
	defer mon.Close()

	events, err := mon.RunTicks(context.Background(), *ticks)
	if err != nil {
		log.Fatal(err)
	}

	if *asJSON {
		enc := json.NewEncoder(os.Stdout)
		for i := range events {
			if err := enc.Encode(&events[i]); err != nil {
				log.Fatal(err)
			}
		}
	} else {
		fmt.Print(filtermap.RenderMonitorLog(events))
	}
	if *summary {
		if !*asJSON {
			fmt.Println()
		}
		fmt.Print(filtermap.RenderMonitorSummary(mon.Counters()))
	}
}

// selectPlans resolves the -plans subset against the default rotation.
func selectPlans(spec string) ([]filtermap.MonitorPlan, error) {
	if spec == "" {
		return nil, nil // monitor default: the full rotation
	}
	byName := make(map[string]filtermap.MonitorPlan)
	for _, p := range filtermap.DefaultMonitorPlans() {
		byName[p.Name] = p
	}
	var out []filtermap.MonitorPlan
	for _, name := range strings.Split(spec, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		p, ok := byName[name]
		if !ok {
			return nil, fmt.Errorf("unknown plan %q (have: identify, mechanisms, discovery)", name)
		}
		out = append(out, p)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-plans selected nothing")
	}
	return out, nil
}
