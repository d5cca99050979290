package trace_test

import (
	"math/rand"
	"testing"

	"securetlb/internal/mem"
	"securetlb/internal/ptw"
	"securetlb/internal/tlb"
	"securetlb/internal/trace"
)

// TestMemoWalkerMatchesWalk checks the memoizing walker differentially
// against the page walk it wraps: random (ASID, VPN) pairs inside the dense
// window, at and just past its edges, far outside it and past the Sv39
// range, under window ASIDs, spill ASIDs and ASIDs with no address space,
// mapped and unmapped, each asked several times, must return the same PPN,
// cycles and error text as PageTables.Walk. Some pages map to frames past
// 2^32, and the second configuration's memory latency makes every walk cost
// more than 2^16 cycles, so both of the dense entry's overflow spills run.
func TestMemoWalkerMatchesWalk(t *testing.T) {
	const (
		nasid = 3      // window ASIDs 0..2; 3 and 4 spill, 5 has no tables
		base  = 0x4000 // dense window [base, base+span)
		span  = 64
	)
	for _, latency := range []uint64{mem.DefaultLatency, 30000} {
		rng := rand.New(rand.NewSource(int64(latency)))
		pt := ptw.New(mem.New(latency), 0x100000)
		vpnDraw := func() tlb.VPN {
			switch rng.Intn(6) {
			case 0, 1:
				return tlb.VPN(base + rng.Intn(span))
			case 2:
				return tlb.VPN(base - 3 + rng.Intn(6)) // around the low edge
			case 3:
				return tlb.VPN(base + span - 3 + rng.Intn(6)) // around the high edge
			case 4:
				return tlb.VPN(rng.Int63n(ptw.MaxVPN + 1))
			}
			// Past Sv39: window pages with high bits set, which the walk
			// resolves by their low bits but names in full in its errors.
			return tlb.VPN(uint64(1+rng.Intn(3))<<(46+rng.Intn(12)) | uint64(base+rng.Intn(span)))
		}
		for i := 0; i < 200; i++ {
			asid := tlb.ASID(rng.Intn(nasid + 2))
			vpn := vpnDraw() & ptw.MaxVPN
			ppn := uint64(0x200000 + i)
			if rng.Intn(5) == 0 {
				ppn += 1 << 40 // past the dense entry's 32-bit PPN
			}
			if err := pt.Map(asid, vpn, ppn); err != nil {
				t.Fatal(err)
			}
		}
		w := trace.NewMemoWalker(pt, nasid, base, span)
		for i := 0; i < 20000; i++ {
			asid, vpn := tlb.ASID(rng.Intn(nasid+3)), vpnDraw()
			wantPPN, wantCyc, wantErr := pt.Walk(asid, vpn)
			gotPPN, gotCyc, gotErr := w.Walk(asid, vpn)
			if gotPPN != wantPPN || gotCyc != wantCyc || (gotErr == nil) != (wantErr == nil) ||
				gotErr != nil && gotErr.Error() != wantErr.Error() {
				t.Fatalf("latency %d, walk %d of (%d, %#x): memo (%#x, %d, %v), page walk (%#x, %d, %v)",
					latency, i, asid, vpn, gotPPN, gotCyc, gotErr, wantPPN, wantCyc, wantErr)
			}
		}
	}
}
