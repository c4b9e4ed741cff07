package world

import (
	"flag"
	"fmt"
	"strings"

	"filtermap/internal/engine"
	"filtermap/internal/netsim"
)

// Flags declares the world flags the CLIs share (-workers, -scale,
// -chaos and -fault-profile) on fs. The returned function maps their
// parsed values onto base and returns the engine options to build the
// world with; flags left at their defaults leave base untouched and add
// no engine option.
func Flags(fs *flag.FlagSet) func(base Options) (Options, []engine.Option) {
	workers := fs.Int("workers", 0, "engine worker-pool size (0 = default)")
	scale := fs.String("scale", "", "world scale profile: small (default), city, nation — city/nation add a synthetic population answered from seeded derivations")
	chaos := fs.Uint64("chaos", 0, "nonzero: install the deterministic fault-injection plan with this seed")
	faultProfile := fs.String("fault-profile", "",
		fmt.Sprintf("fault profile for -chaos, one of %s (default %q)",
			strings.Join(netsim.FaultProfiles(), ", "), netsim.DefaultFaultProfile))
	return func(base Options) (Options, []engine.Option) {
		if *scale != "" {
			base.Scale = *scale
		}
		if *chaos != 0 {
			base.ChaosSeed = *chaos
		}
		if *faultProfile != "" {
			base.FaultProfile = *faultProfile
		}
		var engOpts []engine.Option
		if *workers > 0 {
			engOpts = append(engOpts, engine.WithWorkers(*workers))
		}
		return base, engOpts
	}
}
