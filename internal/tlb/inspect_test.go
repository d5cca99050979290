package tlb

import (
	"slices"
	"testing"
	"unsafe"
)

// inspectable is one design under the Inspectable contract, with the set
// mapping its placement must agree with.
type inspectable struct {
	name  string
	mk    func(t *testing.T) TLB
	setOf func(d TLB, e EntrySnapshot) int
}

func inspectableDesigns() []inspectable {
	plain := func(d TLB, e EntrySnapshot) int {
		return d.(interface{ SetIndex(VPN) int }).SetIndex(e.VPN)
	}
	w := cloneWalker()
	must := func(t *testing.T, d TLB, err error) TLB {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	return []inspectable{
		{"SA", func(t *testing.T) TLB { d, err := NewSetAssoc(32, 4, w); return must(t, d, err) }, plain},
		{"SP", func(t *testing.T) TLB {
			d, err := NewSP(32, 4, 2, w)
			if err == nil {
				d.SetVictim(1)
			}
			return must(t, d, err)
		}, plain},
		{"RF", func(t *testing.T) TLB {
			d, err := NewRF(32, 4, w, 7)
			if err == nil {
				d.SetVictim(1)
				d.SetSecureRegion(0x100, 4)
			}
			return must(t, d, err)
		}, plain},
		{"RI", func(t *testing.T) TLB { d, err := NewRandIdx(32, 4, w, 7, 0); return must(t, d, err) },
			func(d TLB, e EntrySnapshot) int { return d.(*RandIdx).KeyedSetIndex(e.ASID, e.VPN) }},
		{"FS", func(t *testing.T) TLB { d, err := NewFlushOnSwitch(32, 4, w); return must(t, d, err) }, plain},
	}
}

// inspectTrace is the access sequence the Inspectable tests drive: enough
// pages to evict in some sets and leave ways invalid in others.
func inspectTrace() [][2]uint64 {
	var tr [][2]uint64
	for i := uint64(0); i < 24; i++ {
		tr = append(tr, [2]uint64{1, 0x100 + 3*i})
	}
	for i := uint64(0); i < 4; i++ {
		tr = append(tr, [2]uint64{2, 0x200 + 8*i})
	}
	return tr
}

func drive(t *testing.T, d TLB, tr [][2]uint64) {
	t.Helper()
	for _, a := range tr {
		if _, err := d.Translate(ASID(a[0]), VPN(a[1])); err != nil {
			t.Fatal(err)
		}
	}
}

// TestEntrySnapshotSize pins the array entry to 32 bytes: a new field must
// not silently widen every lookup's set scan.
func TestEntrySnapshotSize(t *testing.T) {
	if got := unsafe.Sizeof(EntrySnapshot{}); got != 32 {
		t.Errorf("sizeof(EntrySnapshot) = %d, want 32", got)
	}
}

// TestSnapshotIsIndependentCopy checks that SnapshotAppend appends exactly
// Entries() elements after dst and that later activity on the design does
// not reach into a snapshot already taken.
func TestSnapshotIsIndependentCopy(t *testing.T) {
	for _, tc := range inspectableDesigns() {
		d := tc.mk(t)
		drive(t, d, inspectTrace())
		insp := d.(Inspectable)
		snap := insp.SnapshotAppend(nil)
		prefix := EntrySnapshot{VPN: 0xabc, Valid: true}
		withPrefix := insp.SnapshotAppend([]EntrySnapshot{prefix})
		if len(snap) != d.Entries() || withPrefix[0] != prefix || !slices.Equal(withPrefix[1:], snap) {
			t.Fatalf("%s: SnapshotAppend returned %d entries (%d after a prefix, which reads %+v), want %d",
				tc.name, len(snap), len(withPrefix)-1, withPrefix[0], d.Entries())
		}
		want := slices.Clone(snap)
		drive(t, d, [][2]uint64{{1, 0x900}, {1, 0x904}, {1, 0x100}})
		d.FlushAll()
		if !slices.Equal(snap, want) || !slices.Equal(withPrefix[1:], want) {
			t.Errorf("%s: snapshot changed after the design was mutated", tc.name)
		}
		if now := insp.SnapshotAppend(nil); slices.Equal(now, want) {
			t.Errorf("%s: FlushAll left the snapshot unchanged; the test does not mutate", tc.name)
		}
	}
}

// TestSnapshotSetMajorPlacement checks that element i of a snapshot is way
// i%W of set i/W: every valid entry sits in the set the design's own mapping
// names, and the valid entries are exactly the translations Probe reports.
func TestSnapshotSetMajorPlacement(t *testing.T) {
	for _, tc := range inspectableDesigns() {
		d := tc.mk(t)
		tr := inspectTrace()
		drive(t, d, tr)
		snap := d.(Inspectable).SnapshotAppend(nil)
		resident := map[[2]uint64]bool{}
		for i, e := range snap {
			if !e.Valid {
				continue
			}
			if set := i / d.Ways(); tc.setOf(d, e) != set {
				t.Errorf("%s: (%d,%#x) at snapshot index %d (set %d), mapping says set %d",
					tc.name, e.ASID, e.VPN, i, set, tc.setOf(d, e))
			}
			resident[[2]uint64{uint64(e.ASID), uint64(e.VPN)}] = true
		}
		if len(resident) == 0 {
			t.Fatalf("%s: no resident entries after the trace", tc.name)
		}
		for _, a := range tr {
			if got := d.Probe(ASID(a[0]), VPN(a[1])); got != resident[a] {
				t.Errorf("%s: Probe(%d,%#x) = %v, snapshot residency %v", tc.name, a[0], a[1], got, resident[a])
			}
		}
	}
}

// TestCorruptEntry checks that CorruptEntry refuses invalid and
// out-of-range coordinates without touching the array, and that an accepted
// corruption shows in the next snapshot and nowhere else.
func TestCorruptEntry(t *testing.T) {
	for _, tc := range inspectableDesigns() {
		d := tc.mk(t)
		drive(t, d, inspectTrace())
		insp := d.(Inspectable)
		sets, ways := d.Entries()/d.Ways(), d.Ways()
		before := insp.SnapshotAppend(nil)
		called := false
		flip := func(e *EntrySnapshot) { called = true; e.PPN ^= 1 << 5 }

		refused := [][2]int{{-1, 0}, {sets, 0}, {0, -1}, {0, ways}}
		valid := -1
		for i, e := range before {
			if !e.Valid {
				refused = append(refused, [2]int{i / ways, i % ways})
			} else if valid < 0 {
				valid = i
			}
		}
		if len(refused) == 4 || valid < 0 {
			t.Fatalf("%s: trace left no invalid (%d) or no valid way", tc.name, len(refused)-4)
		}
		for _, c := range refused {
			if insp.CorruptEntry(c[0], c[1], flip) {
				t.Errorf("%s: CorruptEntry(%d,%d) accepted an invalid or out-of-range way", tc.name, c[0], c[1])
			}
		}
		if called || !slices.Equal(insp.SnapshotAppend(nil), before) {
			t.Fatalf("%s: refused CorruptEntry calls changed the array (f called: %v)", tc.name, called)
		}

		if !insp.CorruptEntry(valid/ways, valid%ways, flip) {
			t.Fatalf("%s: CorruptEntry refused valid way %d", tc.name, valid)
		}
		want := slices.Clone(before)
		want[valid].PPN ^= 1 << 5
		if got := insp.SnapshotAppend(nil); !slices.Equal(got, want) {
			t.Errorf("%s: snapshot after corrupting index %d:\n got %+v\nwant %+v", tc.name, valid, got, want)
		}
	}
}
