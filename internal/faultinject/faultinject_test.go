package faultinject

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"securetlb/internal/tlb"
)

func walker() tlb.Walker {
	return tlb.WalkerFunc(func(asid tlb.ASID, vpn tlb.VPN) (tlb.PPN, uint64, error) {
		return tlb.PPN(uint64(vpn)<<4 | uint64(asid)), 60, nil
	})
}

func TestParseSite(t *testing.T) {
	for _, s := range Sites() {
		got, err := ParseSite(string(s))
		if err != nil || got != s {
			t.Errorf("ParseSite(%q) = %v, %v", s, got, err)
		}
	}
	if _, err := ParseSite("no-such-site"); err == nil {
		t.Error("ParseSite accepted an unknown site")
	}
}

// TestDeterministic requires two injectors with the same (site, seed) to land
// the identical fault on identical traffic.
func TestDeterministic(t *testing.T) {
	run := func() string {
		sa, err := tlb.NewSetAssoc(32, 8, walker())
		if err != nil {
			t.Fatal(err)
		}
		in := New(SiteTagFlip, 0xdead)
		if err := in.Arm(sa, nil, nil); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 32; i++ {
			sa.Translate(0, tlb.VPN(i))
		}
		in.Disarm()
		return in.Detail()
	}
	a, b := run(), run()
	if a == "" || a != b {
		t.Fatalf("non-deterministic injection: %q vs %q", a, b)
	}
	// A different seed must (for this pair) make a different decision.
	sa, _ := tlb.NewSetAssoc(32, 8, walker())
	in := New(SiteTagFlip, 0xbeef)
	in.Arm(sa, nil, nil)
	for i := 0; i < 32; i++ {
		sa.Translate(0, tlb.VPN(i))
	}
	in.Disarm()
	if in.Detail() == a {
		t.Errorf("seeds 0xdead and 0xbeef produced the identical fault %q", a)
	}
}

func TestDisarmRemovesHooks(t *testing.T) {
	sa, _ := tlb.NewSetAssoc(32, 8, walker())
	in := New(SiteDropFill, 1)
	if err := in.Arm(sa, nil, nil); err != nil {
		t.Fatal(err)
	}
	in.Disarm()
	for i := 0; i < 16; i++ {
		sa.Translate(0, tlb.VPN(i))
	}
	if in.Fired() {
		t.Error("disarmed injector still fired")
	}
}

func TestArmRejectsMisuse(t *testing.T) {
	sa, _ := tlb.NewSetAssoc(32, 8, walker())
	if err := New(SiteRNGBias, 1).Arm(sa, nil, nil); err == nil {
		t.Error("rng-bias armed on a non-RF design")
	}
	if err := New(SiteWalkCorrupt, 1).Arm(sa, nil, nil); err == nil {
		t.Error("walk-corrupt armed without page tables")
	}
	if err := New(SiteMemBitRot, 1).Arm(sa, nil, nil); err == nil {
		t.Error("mem-bit-rot armed without a memory")
	}
	if err := New(SiteCheckpointTruncate, 1).Arm(sa, nil, nil); err == nil {
		t.Error("at-rest site armed on a machine")
	}
}

func TestCorruptFile(t *testing.T) {
	dir := t.TempDir()
	content := []byte(`{"version":2,"units":{"a":1234567890}}`)

	path := filepath.Join(dir, "trunc.json")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	detail, err := CorruptFile(SiteCheckpointTruncate, path, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, _ := os.ReadFile(path)
	if len(got) >= len(content) {
		t.Errorf("truncation did not shrink the file: %d -> %d (%s)", len(content), len(got), detail)
	}

	path = filepath.Join(dir, "rot.json")
	if err := os.WriteFile(path, content, 0o644); err != nil {
		t.Fatal(err)
	}
	detail, err = CorruptFile(SiteCheckpointBitRot, path, 7)
	if err != nil {
		t.Fatal(err)
	}
	got, _ = os.ReadFile(path)
	if len(got) != len(content) || string(got) == string(content) {
		t.Errorf("bit rot did not flip exactly in place (%s)", detail)
	}
	if !strings.Contains(detail, "flipped bit") {
		t.Errorf("detail = %q", detail)
	}

	if _, err := CorruptFile(SiteTagFlip, path, 1); err == nil {
		t.Error("CorruptFile accepted a machine site")
	}
}
