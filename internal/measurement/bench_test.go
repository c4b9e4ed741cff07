package measurement

import (
	"context"
	"net/netip"
	"testing"

	"filtermap/internal/netsim"
)

// BenchmarkMechanismProbes is the measurement-side leg of the mechanism
// probe benchmarks (the parsing legs live in internal/mechanism): one
// full RST discrimination — dial, raw HTTP write, injected-reset
// classification, sidedness follow-up, signature match — through a live
// netsim path. Tracked in BENCH_mechanisms.json via
// scripts/bench_json.sh mechanisms.
func BenchmarkMechanismProbes(b *testing.B) {
	b.Run("RSTDiscriminate", func(b *testing.B) {
		fx := newMechFixture(b)
		blocked := netsim.NewDomainSet(mechSite)
		fx.isp.SetMechanisms(&netsim.Mechanisms{
			Host: netsim.HostFilterFunc(func(_ netsim.DialInfo, host string) netsim.StreamVerdict {
				if blocked.Contains(host) {
					return netsim.StreamVerdict{Action: netsim.StreamReset, TTL: 64, Window: 8192}
				}
				return netsim.StreamVerdict{Action: netsim.StreamPass}
			}),
		})
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probe := fx.client.rstProbe(ctx, mechSite, fx.siteAddr)
			if !probe.Detected || probe.Product == "" {
				b.Fatalf("rst probe lost the injection: %+v", probe)
			}
		}
	})
	b.Run("DNSCompare", func(b *testing.B) {
		fx := newMechFixture(b)
		blocked := netsim.NewDomainSet(mechSite)
		sink := netip.MustParseAddr("203.0.113.40")
		fx.isp.SetMechanisms(&netsim.Mechanisms{
			DNS: netsim.DNSFilterFunc(func(_ netip.Addr, name string) netsim.DNSVerdict {
				if blocked.Contains(name) {
					return netsim.DNSVerdict{Action: netsim.DNSSinkhole, Addr: sink}
				}
				return netsim.DNSVerdict{Action: netsim.DNSClean}
			}),
		})
		ctx := context.Background()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			probe, _ := fx.client.dnsProbe(ctx, mechSite)
			if !probe.Detected || probe.Product == "" {
				b.Fatalf("dns probe lost the poisoning: %+v", probe)
			}
		}
	})
}
