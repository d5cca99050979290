package tlb

import (
	"math/rand"
	"slices"
	"testing"
)

// This file checks the array core's match shadow and recency lists: the
// tag scan and the list-head victim against the fused single-pass scans
// they replaced (kept here as the slow references), and the shadows
// against a from-scratch derivation from backing after random operation
// sequences through every writer.

// findOrVictim is the reference lookup: one pass over the set's entries,
// returning the way holding (asid, vpn) — with victim == -1 — or hit == -1
// together with the fill victim: the first invalid way, else the least
// recently used, the lowest way on a stamp tie.
func findOrVictim(set []entry, asid ASID, vpn VPN) (hit, victim int) {
	inv := -1
	oldest := ^uint64(0)
	for w := range set {
		e := &set[w]
		if e.Valid {
			if e.VPN == vpn && e.ASID == asid {
				return w, -1
			}
			if e.Stamp < oldest {
				victim, oldest = w, e.Stamp
			}
		} else if inv < 0 {
			inv = w
		}
	}
	if inv >= 0 {
		return -1, inv
	}
	return -1, victim
}

// findOrVictimIn is findOrVictim with the victim confined to ways [lo, hi),
// the SP TLB's fill partition.
func findOrVictimIn(set []entry, asid ASID, vpn VPN, lo, hi int) (hit, victim int) {
	inv := -1
	oldest := ^uint64(0)
	victim = lo
	for w := range set {
		e := &set[w]
		if e.Valid {
			if e.VPN == vpn && e.ASID == asid {
				return w, -1
			}
			if lo <= w && w < hi && e.Stamp < oldest {
				victim, oldest = w, e.Stamp
			}
		} else if inv < 0 && lo <= w && w < hi {
			inv = w
		}
	}
	if inv >= 0 {
		return -1, inv
	}
	return -1, victim
}

// coreOf returns the array core of a single-array design.
func coreOf(t *testing.T, tl TLB) *array {
	switch v := tl.(type) {
	case *SetAssoc:
		return &v.array
	case *SP:
		return &v.array
	case *RF:
		return &v.array
	case *RandIdx:
		return &v.array
	case *FlushOnSwitch:
		return &v.array
	}
	t.Fatalf("%s has no array core", tl.Name())
	return nil
}

// recencyRef derives one replacement region's recency order from backing
// alone: the invalid ways in way order, then the valid ways by (Stamp, way).
func recencyRef(set []entry, lo, hi int) []int {
	var ways []int
	for w := lo; w < hi; w++ {
		ways = append(ways, w)
	}
	slices.SortStableFunc(ways, func(x, y int) int {
		ex, ey := set[x], set[y]
		switch {
		case ex.Valid != ey.Valid:
			if !ex.Valid {
				return -1
			}
			return 1
		case !ex.Valid || ex.Stamp == ey.Stamp:
			return x - y
		case ex.Stamp < ey.Stamp:
			return -1
		}
		return 1
	})
	return ways
}

// regionList walks a region's circular list from its sentinel, oldest
// first, checking that the back links agree.
func regionList(t *testing.T, ls []link, sen int) []int {
	t.Helper()
	var out []int
	for p := int(ls[sen].newer); p != sen; p = int(ls[p].newer) {
		if n := int(ls[p].newer); int(ls[n].older) != p {
			t.Fatalf("node %d: newer %d links back to %d", p, n, ls[n].older)
		}
		out = append(out, p)
		if len(out) > len(ls) {
			t.Fatalf("region list of sentinel %d does not close", sen)
		}
	}
	return out
}

// checkShadows rebuilds the match shadow and every recency list from
// backing and fails on any difference from the array's own.
func checkShadows(t *testing.T, a *array, context string) {
	t.Helper()
	ways := a.geom.ways
	for i, e := range a.backing {
		tag, id := VPN(0), uint32(0)
		if e.Valid {
			tag, id = e.VPN, uint32(e.ASID)+1
		}
		if a.tags[i] != tag || a.ids[i] != id {
			t.Fatalf("%s: way %d of set %d: shadow (%#x, %d), backing %+v",
				context, i%ways, i/ways, a.tags[i], a.ids[i], e)
		}
	}
	for s := 0; s < a.geom.sets; s++ {
		set := a.backing[s*ways : (s+1)*ways]
		ls := a.order[s*(ways+2) : (s+1)*(ways+2)]
		for r, bounds := range [][2]int{{0, a.split}, {a.split, ways}} {
			got := regionList(t, ls, ways+r)
			want := recencyRef(set, bounds[0], bounds[1])
			if len(want) == 0 {
				want = nil
			}
			if !slices.Equal(got, want) {
				t.Fatalf("%s: set %d region [%d,%d): list %v, backing orders %v",
					context, s, bounds[0], bounds[1], got, want)
			}
		}
	}
}

// TestScanMatchesFusedReference fills arrays with random entries — invalid
// ways, stamp ties, one page under two ASIDs — derives the shadows, and
// checks that the tag match and the list-head victim return exactly what
// the fused reference scans return, for every query and every SP fill
// range.
func TestScanMatchesFusedReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, ways := range []int{1, 2, 4, 8, 32, 128} {
		for trial := 0; trial < 60; trial++ {
			a, err := newArray("SA", 2*ways, ways, cloneWalker())
			if err != nil {
				t.Fatal(err)
			}
			for i := range a.backing {
				if rng.Intn(4) == 0 {
					continue // invalid way
				}
				a.backing[i] = entry{
					Valid: true,
					ASID:  ASID(rng.Intn(2)),
					VPN:   VPN(rng.Intn(6)),
					PPN:   PPN(rng.Intn(1 << 20)),
					Stamp: uint64(rng.Intn(8)), // few values: many ties
				}
			}
			for i := range a.backing {
				a.sync(i)
			}
			for split := 0; split < ways; split++ {
				a.setSplit(split)
				for s := 0; s < a.geom.sets; s++ {
					set := a.backing[s*ways : (s+1)*ways]
					for asid := ASID(0); asid < 3; asid++ {
						for vpn := VPN(0); vpn < 7; vpn++ {
							ranges := [][2]int{{0, ways}}
							if split > 0 {
								ranges = [][2]int{{0, split}, {split, ways}}
							}
							for _, r := range ranges {
								wantHit, wantVictim := findOrVictimIn(set, asid, vpn, r[0], r[1])
								if split == 0 {
									wantHit, wantVictim = findOrVictim(set, asid, vpn)
								}
								gotHit, gotVictim := a.match(s, asid, vpn), -1
								if gotHit < 0 {
									gotVictim = a.fillWay(s, r[0])
								}
								if gotHit != wantHit || gotVictim != wantVictim {
									t.Fatalf("%d ways, split %d, set %d, (%d,%d) range %v: got (%d,%d), reference (%d,%d)\nset %+v",
										ways, split, s, asid, vpn, r, gotHit, gotVictim, wantHit, wantVictim, set)
								}
							}
						}
					}
				}
			}
		}
	}
}

// TestShadowsTrackBacking runs random operation sequences through every
// writer of the array core — fills and hits, the four flushes, CorruptEntry
// on VPN, ASID, Stamp, Valid and Sec, FillDrop and FillDuplicate faults,
// the stuck-LRU hook, clones, SP repartitions, RI re-keys and FS switch
// flushes — and after every operation rebuilds the match shadow and the
// recency lists from backing and compares. It also checks the write
// generation's contract: an operation that leaves Generation unchanged
// leaves SnapshotAppend unchanged.
func TestShadowsTrackBacking(t *testing.T) {
	w := cloneWalker()
	designs := []struct {
		name string
		mk   func() (TLB, error)
	}{
		{"SA", func() (TLB, error) { return NewSetAssoc(16, 4, w) }},
		{"FA", func() (TLB, error) { return NewFullyAssoc(16, w) }},
		{"SP", func() (TLB, error) {
			d, err := NewSP(16, 4, 2, w)
			if err == nil {
				d.SetVictim(1)
			}
			return d, err
		}},
		{"SP-FA", func() (TLB, error) {
			d, err := NewSP(8, 8, 3, w)
			if err == nil {
				d.SetVictim(1)
			}
			return d, err
		}},
		{"RF", func() (TLB, error) {
			d, err := NewRF(16, 4, w, 3)
			if err == nil {
				d.SetVictim(1)
				d.SetSecureRegion(2, 3)
			}
			return d, err
		}},
		{"RI", func() (TLB, error) { return NewRandIdx(16, 4, w, 3, 5) }},
		{"FS", func() (TLB, error) {
			d, err := NewFlushOnSwitch(16, 4, w)
			if err == nil {
				d.SetVictim(1)
				d.SetSecureRegion(2, 3)
			}
			return d, err
		}},
	}
	for _, d := range designs {
		t.Run(d.name, func(t *testing.T) {
			rng := rand.New(rand.NewSource(7))
			for seq := 0; seq < 40; seq++ {
				tl, err := d.mk()
				if err != nil {
					t.Fatal(err)
				}
				var fillAction FillAction
				stuck := false
				hook := &FaultHook{
					OnFill:     func(int, int) FillAction { return fillAction },
					OnLRUTouch: func(int, int) bool { return !stuck },
				}
				var before, after []EntrySnapshot
				for step := 0; step < 300; step++ {
					asid, vpn := ASID(rng.Intn(3)), VPN(rng.Intn(24))
					insp := tl.(Inspectable)
					gen := coreOf(t, tl).Generation()
					before = insp.SnapshotAppend(before[:0])
					var did string
					switch k := rng.Intn(20); {
					case k < 9:
						did = "translate"
						if _, err := tl.Translate(asid, vpn); err != nil {
							t.Fatal(err)
						}
					case k == 9:
						did = "probe"
						tl.Probe(asid, vpn)
					case k == 10:
						did = "flush all"
						tl.FlushAll()
					case k == 11:
						did = "flush asid"
						tl.FlushASID(asid)
					case k == 12:
						did = "flush page"
						tl.FlushPage(asid, vpn)
					case k == 13:
						did = "flush page all asids"
						tl.FlushPageAllASIDs(vpn)
					case k == 14:
						did = "corrupt"
						ways := tl.Ways()
						field := rng.Intn(5)
						v := rng.Intn(24)
						insp.CorruptEntry(rng.Intn(tl.Entries()/ways), rng.Intn(ways), func(e *EntrySnapshot) {
							switch field {
							case 0:
								e.VPN = VPN(v)
							case 1:
								e.ASID = ASID(v % 3)
							case 2:
								e.Stamp = uint64(v) * coreOf(t, tl).clock / 12
							case 3:
								e.Valid = false
							case 4:
								e.Sec = !e.Sec
							}
						})
					case k == 15:
						did = "arm hook"
						fillAction = FillAction(rng.Intn(3))
						stuck = rng.Intn(2) == 0
						insp.SetFaultHook(hook)
					case k == 16:
						did = "disarm hook"
						insp.SetFaultHook(nil)
					case k == 17:
						did = "clone"
						tl = tl.(Cloner).CloneWith(w)
					case k == 18:
						switch v := tl.(type) {
						case *SP:
							did = "repartition"
							if err := v.SetVictimWays(1 + rng.Intn(v.Ways()-1)); err != nil {
								t.Fatal(err)
							}
						case *FlushOnSwitch:
							did = "observe asid"
							v.ObserveASID(asid)
						}
					case k == 19:
						did = "translate other context"
						if _, err := tl.Translate(asid+3, vpn); err != nil {
							t.Fatal(err)
						}
					}
					checkShadows(t, coreOf(t, tl), d.name+" after "+did)
					after = tl.(Inspectable).SnapshotAppend(after[:0])
					if coreOf(t, tl).Generation() == gen && !slices.Equal(before, after) {
						t.Fatalf("%s after %s: the array changed but its generation stayed %d", d.name, did, gen)
					}
				}
			}
		})
	}
}
