package world

import (
	"flag"
	"reflect"
	"testing"

	"filtermap/internal/engine"
)

func TestFlags(t *testing.T) {
	base := Options{Seed: 42, HideConsoles: true, ScrubHeaders: true, FilterSubmissions: true}
	withFlags := base
	withFlags.Scale = ScaleCity
	withFlags.ChaosSeed = 7
	withFlags.FaultProfile = "flaky"
	cases := []struct {
		name    string
		args    []string
		want    Options
		workers int // engine workers the returned options set; 0 = no options
	}{
		{"no flags", nil, base, 0},
		{"zero workers", []string{"-workers", "0"}, base, 0},
		{"all flags", []string{"-workers", "3", "-scale", "city", "-chaos", "7", "-fault-profile", "flaky"}, withFlags, 3},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			fs := flag.NewFlagSet("world", flag.ContinueOnError)
			apply := Flags(fs)
			for name, def := range map[string]string{"workers": "0", "scale": "", "chaos": "0", "fault-profile": ""} {
				if f := fs.Lookup(name); f == nil || f.DefValue != def {
					t.Fatalf("flag -%s missing or default changed: %+v", name, f)
				}
			}
			if err := fs.Parse(tc.args); err != nil {
				t.Fatal(err)
			}
			got, engOpts := apply(base)
			if !reflect.DeepEqual(got, tc.want) {
				t.Fatalf("options = %+v, want %+v", got, tc.want)
			}
			if tc.workers == 0 {
				if len(engOpts) != 0 {
					t.Fatalf("got %d engine options, want none", len(engOpts))
				}
				return
			}
			if w := engine.NewConfig(engOpts...).Workers; w != tc.workers {
				t.Fatalf("engine workers = %d, want %d", w, tc.workers)
			}
		})
	}
}
