package world

import (
	"fmt"

	"filtermap/internal/netsim"
)

// BuildScaleReference is the independent reference for the scale realm
// (DESIGN.md §16): it detaches w's realm and registers every synthetic
// host as an ordinary netsim Host, through the same AddISP / AddHost /
// Serve paths the handcrafted world uses. The realm answers
// every dial from derivations instead; the equivalence battery and
// BenchmarkScaleFullScan compare the two. Exported for the battery's
// external test package.
func BuildScaleReference(w *World) error {
	r := w.scale
	if r == nil {
		return fmt.Errorf("world: scale %q has no synthetic population", w.Opts.Scale)
	}
	w.Net.SetRealm(nil)
	for i := 0; i < r.profile.isps; i++ {
		if err := r.registerISP(i); err != nil {
			return err
		}
	}
	return nil
}

// registerISP registers ISP i and every one of its hosts with their
// listeners.
func (r *scaleRealm) registerISP(i int) error {
	w := r.w
	isp, err := w.Net.AddISP(r.ispName(i))
	if err != nil {
		return err
	}
	n := r.hostCount(i)
	for j := 0; j < n; j++ {
		host, err := w.Net.AddHost(r.hostAddr(i, j), r.hostName(i, j), isp)
		if err != nil {
			return err
		}
		switch {
		case j == 0:
			// Gateway: named but dark, like most infrastructure routers.
		case j == 1 && r.hasConsole(i):
			if err := w.installBackgroundProduct(r.consoleProduct(i), host); err != nil {
				return err
			}
		case j == 2 && r.hasDecoy(i):
			if _, err := host.Serve(80, netsim.Public, r.decoy); err != nil {
				return err
			}
		case r.genericDark(i, j):
			// Dark generic host: exists, answers nothing.
		default:
			if _, err := host.Serve(r.genericPort(i, j), netsim.Public, r.templates[r.genericTemplate(i, j)]); err != nil {
				return err
			}
		}
	}
	return nil
}
