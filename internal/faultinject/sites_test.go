package faultinject_test

import (
	"testing"

	"securetlb/internal/design"
	"securetlb/internal/faultinject"
	"securetlb/internal/tlb"
)

// TestMachineSitesFire arms each machine site on the design the registry
// gives it (the RI TLB for the re-key site, the FS TLB for the flush site),
// or on the RF TLB, the superset of the remaining hooks, for a site every
// design carries, and drives traffic until the fault lands.
func TestMachineSitesFire(t *testing.T) {
	w := tlb.WalkerFunc(func(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
		return tlb.PPN(uint64(vpn)<<4 | uint64(asid)), 60, nil
	})
	for _, site := range faultinject.MachineSites() {
		if site == faultinject.SiteWalkCorrupt || site == faultinject.SiteMemBitRot {
			continue // need a real ptw/mem; covered by the secbench matrix
		}
		t.Run(string(site), func(t *testing.T) {
			d, ok := design.SiteOwner(site)
			if !ok {
				d = design.RF
			}
			tl, err := d.New(32, 8, 0, 0x5eed, 8, w)
			if err != nil {
				t.Fatal(err)
			}
			if st, ok := tl.(tlb.SecureTLB); ok {
				st.SetVictim(1)
				st.SetSecureRegion(0x100, 8)
			}
			in := faultinject.New(site, 0xfa01)
			if err := in.Arm(tl, nil, nil); err != nil {
				t.Fatal(err)
			}
			defer in.Disarm()
			for i := 0; i < 64 && !in.Fired(); i++ {
				// Mix attacker traffic with victim secure-region traffic so
				// every event class (fills, hits, touches, draws, context
				// switches, re-keys) occurs.
				tl.Translate(0, tlb.VPN(i%12))
				tl.Translate(1, tlb.VPN(0x100+i%8))
				tl.Translate(0, tlb.VPN(i%12))
			}
			if !in.Fired() {
				t.Fatalf("site %s never fired", site)
			}
			if in.Detail() == "" {
				t.Error("fired injector has no detail")
			}
		})
	}
}
