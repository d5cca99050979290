package mem

import (
	"testing"
	"testing/quick"
)

func TestLoadStoreRoundTrip(t *testing.T) {
	m := New(20)
	lat, err := m.Store64(0x1000, 0xdeadbeef)
	if err != nil {
		t.Fatal(err)
	}
	if lat != 20 {
		t.Errorf("store latency = %d, want 20", lat)
	}
	v, lat, err := m.Load64(0x1000)
	if err != nil {
		t.Fatal(err)
	}
	if v != 0xdeadbeef || lat != 20 {
		t.Errorf("load = (%#x, %d)", v, lat)
	}
}

func TestUnallocatedReadsZero(t *testing.T) {
	m := New(0)
	v, _, err := m.Load64(0x123450)
	if err != nil || v != 0 {
		t.Errorf("unallocated load = (%#x, %v), want (0, nil)", v, err)
	}
	if m.AllocatedPages() != 0 {
		t.Error("a load must not allocate")
	}
}

func TestMisalignedAccess(t *testing.T) {
	m := New(0)
	if _, _, err := m.Load64(0x1001); err == nil {
		t.Error("misaligned load should error")
	}
	if _, err := m.Store64(0x1004, 1); err == nil {
		t.Error("misaligned (non-8-byte) store should error")
	}
}

func TestLazyAllocationGranularity(t *testing.T) {
	m := New(0)
	m.Store64(0x0000, 1)
	m.Store64(0x0ff8, 2) // same page
	m.Store64(0x1000, 3) // next page
	if got := m.AllocatedPages(); got != 2 {
		t.Errorf("allocated pages = %d, want 2", got)
	}
}

func TestAccessCounters(t *testing.T) {
	m := New(0)
	m.Store64(0, 1)
	m.Load64(0)
	m.Load64(8)
	if m.Writes != 1 || m.Reads != 2 {
		t.Errorf("counters = (r=%d, w=%d)", m.Reads, m.Writes)
	}
	m.Reset()
	if m.Reads != 0 || m.Writes != 0 || m.AllocatedPages() != 0 {
		t.Error("Reset should clear everything")
	}
	if v, _, _ := m.Load64(0); v != 0 {
		t.Error("contents should be dropped by Reset")
	}
}

func TestQuickStoreThenLoad(t *testing.T) {
	m := New(0)
	f := func(addrRaw uint32, val uint64) bool {
		addr := uint64(addrRaw) &^ 7
		if _, err := m.Store64(addr, val); err != nil {
			return false
		}
		got, _, err := m.Load64(addr)
		return err == nil && got == val
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestCloneSeesCurrentContents(t *testing.T) {
	m := New(20)
	m.Store64(0x1000, 111)
	m.Store64(0x2000, 222)
	c := m.Clone()
	if c.Latency() != 20 {
		t.Errorf("clone latency = %d, want 20", c.Latency())
	}
	for _, addr := range []uint64{0x1000, 0x2000} {
		want, _, _ := m.Load64(addr)
		got, _, err := c.Load64(addr)
		if err != nil || got != want {
			t.Errorf("clone[%#x] = %d, want %d (%v)", addr, got, want, err)
		}
	}
}

func TestCloneWritesAreIsolated(t *testing.T) {
	m := New(0)
	m.Store64(0x1000, 1)
	c := m.Clone()

	// Clone writes must not leak into the original, in the shared page or in
	// fresh pages.
	c.Store64(0x1000, 100)
	c.Store64(0x3000, 300)
	if v, _, _ := m.Load64(0x1000); v != 1 {
		t.Errorf("original[0x1000] = %d after clone write, want 1", v)
	}
	if v, _, _ := m.Load64(0x3000); v != 0 {
		t.Errorf("original[0x3000] = %d after clone write, want 0", v)
	}

	// And the original's writes must not leak into the clone.
	m.Store64(0x1008, 2)
	if v, _, _ := c.Load64(0x1008); v != 0 {
		t.Errorf("clone[0x1008] = %d after original write, want 0", v)
	}
	if v, _, _ := c.Load64(0x1000); v != 100 {
		t.Errorf("clone[0x1000] = %d, want its own 100", v)
	}
}

func TestCloneOfCloneAndInterleavedWrites(t *testing.T) {
	// A template cloned repeatedly, with writes between clones: each clone
	// snapshots the template's state at clone time.
	m := New(0)
	m.Store64(0x1000, 1)
	c1 := m.Clone()
	m.Store64(0x1000, 2)
	c2 := m.Clone()
	m.Store64(0x1000, 3)
	c3 := c2.Clone()
	c2.Store64(0x1000, 22)
	for _, tc := range []struct {
		name string
		mem  *Memory
		want uint64
	}{
		{"template", m, 3}, {"c1", c1, 1}, {"c2", c2, 22}, {"c3 (clone of c2)", c3, 2},
	} {
		if v, _, _ := tc.mem.Load64(0x1000); v != tc.want {
			t.Errorf("%s[0x1000] = %d, want %d", tc.name, v, tc.want)
		}
	}
}

func TestCloneReadDoesNotCopy(t *testing.T) {
	m := New(0)
	for i := uint64(0); i < 8; i++ {
		m.Store64(i<<PageShift, i)
	}
	c := m.Clone()
	for i := uint64(0); i < 8; i++ {
		c.Load64(i << PageShift)
	}
	// Reads on either side keep sharing frames; only writes un-share.
	if got := c.AllocatedPages(); got != 8 {
		t.Errorf("clone pages = %d, want 8 shared", got)
	}
	c.Store64(0, 99)
	if v, _, _ := m.Load64(0); v != 0 {
		t.Error("write-after-read must still copy-on-write")
	}
}

func TestQuickDistinctAddressesIndependent(t *testing.T) {
	f := func(a32, b32 uint32, va, vb uint64) bool {
		a, b := uint64(a32)&^7, uint64(b32)&^7
		if a == b {
			return true
		}
		m := New(0)
		m.Store64(a, va)
		m.Store64(b, vb)
		ga, _, _ := m.Load64(a)
		gb, _, _ := m.Load64(b)
		return ga == va && gb == vb
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestPageCacheCoherentAcrossCloneAndReset fills more pages than the page
// cache has slots, two of them sharing a slot, and reads them all through
// the cache on both sides of a Clone. A page each side then writes, while
// both caches hold it, must be seen through the cache only on the side that
// wrote it, both at once and after every other page has cycled through the
// slots. Reset must leave every slot empty.
func TestPageCacheCoherentAcrossCloneAndReset(t *testing.T) {
	const pages = pageCacheSlots + 4 // pages 1 and 1+pageCacheSlots share a slot
	addr := func(p int) uint64 { return uint64(p)<<PageShift | 8 }
	load := func(m *Memory, p int) uint64 {
		t.Helper()
		v, _, err := m.Load64(addr(p))
		if err != nil {
			t.Fatal(err)
		}
		return v
	}
	m := New(0)
	for p := 0; p < pages; p++ {
		m.Store64(addr(p), uint64(100+p))
	}
	c := m.Clone()
	for p := 0; p < pages; p++ {
		if got, got2 := load(m, p), load(c, p); got != uint64(100+p) || got2 != uint64(100+p) {
			t.Fatalf("page %d after Clone: original %d, clone %d, want %d", p, got, got2, 100+p)
		}
	}
	want := func(p int) (orig, clone uint64) {
		orig, clone = uint64(100+p), uint64(100+p)
		switch p {
		case 1:
			clone = 7
		case 1 + pageCacheSlots:
			orig = 9
		}
		return orig, clone
	}
	check := func(when string, p int) {
		t.Helper()
		wm, wc := want(p)
		if got := load(m, p); got != wm {
			t.Errorf("%s: original page %d = %d, want %d", when, p, got, wm)
		}
		if got := load(c, p); got != wc {
			t.Errorf("%s: clone page %d = %d, want %d", when, p, got, wc)
		}
	}
	load(m, 1)
	load(c, 1) // both caches now hold page 1
	c.Store64(addr(1), 7)
	check("right after the clone's write", 1)
	load(m, 1+pageCacheSlots)
	load(c, 1+pageCacheSlots)
	m.Store64(addr(1+pageCacheSlots), 9)
	check("right after the original's write", 1+pageCacheSlots)
	for round := 0; round < 2; round++ {
		for p := 0; p < pages; p++ {
			check("after both writes", p)
		}
	}
	m.Reset()
	for i, slot := range m.cache {
		if slot.page != nil {
			t.Errorf("after Reset, page-cache slot %d still holds page %d", i, slot.ppn)
		}
	}
	for p := 0; p < pages; p++ {
		if got := load(m, p); got != 0 {
			t.Errorf("after Reset, page %d reads %d, want 0", p, got)
		}
	}
	if got := load(c, 1); got != 7 {
		t.Errorf("clone page 1 = %d after the original's Reset, want 7", got)
	}
}

func BenchmarkClone(b *testing.B) {
	// A realistic campaign footprint: a few hundred touched pages.
	m := New(DefaultLatency)
	for p := 0; p < 300; p++ {
		m.Store64(uint64(p)<<PageShift, uint64(p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Clone()
	}
}

func BenchmarkCloneThenWrite(b *testing.B) {
	// Cost of the first post-clone write to a shared page (the copy).
	m := New(DefaultLatency)
	for p := 0; p < 300; p++ {
		m.Store64(uint64(p)<<PageShift, uint64(p))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c := m.Clone()
		c.Store64(0, uint64(i))
	}
}
